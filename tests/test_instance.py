import math
import pickle
import re
import sys
import tracemalloc
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np
import pytest

from fairfl import (
    IntegralSolution,
    MetricInstance,
    OutlierBudgets,
    PenaltyInstance,
    assign_nearest,
    exact_kmfo,
    gdf_nf,
    ls_nf,
    prune_pairs,
    r_ls_f,
    r_ls_nf,
    solution_cost,
    unfairness,
)
from fairfl import instance as instance_mod
from fairfl.instance import FACILITY_LOCATION, K_MEDIAN, nearest_rows, row_blocks
from conftest import eager_pairs, mask, outliers, random_budgets, random_instance, solution_parts


def simple_instance(client_pts, groups, fac_pts, costs):
    return MetricInstance(np.array(client_pts, float), groups, np.array(fac_pts, float), costs)


class TestDistance:
    def test_three_four_five(self):
        inst = simple_instance([[3.0, 4.0]], [0], [[0.0, 0.0]], [0.0])
        assert inst.distance(0, 0) == 5.0

    def test_colocated(self):
        inst = simple_instance([[1.0, 1.0]], [0], [[1.0, 1.0]], [0.0])
        assert inst.distance(0, 0) == 0.0

    def test_one_dimensional(self):
        inst = simple_instance([[2.0]], [0], [[0.0]], [0.0])
        assert inst.distance(0, 0) == 2.0

    def test_matches_matrix(self, rng):
        inst = random_instance(rng, max_n=8, max_m=4)
        small = inst.distances()
        for i in range(inst.n_facilities):
            for j in range(inst.n_clients):
                assert inst.distance(i, j) == pytest.approx(small[i, j], abs=0)

    @staticmethod
    def whole(facs, clients):
        """The plain numpy expression the matrix must equal bit for bit."""
        return np.sqrt(((facs[:, None] - clients[None]) ** 2).sum(axis=2))

    @pytest.mark.parametrize("block_bytes", [1, 100, 1000, 1 << 40])
    def test_blocked_matrix_equals_whole_product(self, rng, monkeypatch, block_bytes):
        # the kernel's row blocks only bound the temporaries: every entry is
        # bitwise the one the whole (facilities x clients x dim) product
        # gives, in numpy's summation order over the coordinates
        monkeypatch.setattr(instance_mod, "_KERNEL_BLOCK_BYTES", block_bytes)
        for dim in list(range(1, 41)) + [129, 300]:
            n, m = rng.integers(1, 40), rng.integers(1, 12)
            clients, facs = rng.normal(0, 10, (n, dim)), rng.normal(0, 10, (m, dim))
            inst = MetricInstance(clients, np.zeros(n, int), facs, np.ones(m))
            assert inst.distances().tobytes() == self.whole(facs, clients).tobytes()

    def test_blocked_matrix_at_large_csv_size(self, rng):
        clients, facs = rng.random((4500, 6)), rng.random((100, 6))
        inst = MetricInstance(clients, np.zeros(4500, int), facs, np.ones(100))
        assert inst.distances().tobytes() == self.whole(facs, clients).tobytes()

    def test_row_blocks_cover_rows_in_order(self):
        for n_rows in (1, 7, 64):
            for row_bytes in (1, 48, 1 << 19, 1 << 30):
                blocks = row_blocks(n_rows, row_bytes)
                assert [r for b in blocks for r in range(n_rows)[b]] == list(range(n_rows))
                assert blocks[0].stop - blocks[0].start == max(1, (1 << 20) // row_bytes)

    def test_symmetry_and_triangle(self, rng):
        pts = rng.random((7, 3))
        inst = MetricInstance(pts, np.zeros(7, int), pts, np.zeros(7))
        d = inst.distances()
        assert np.allclose(d, d.T)
        for a in range(7):
            for b in range(7):
                for c in range(7):
                    assert d[a, c] <= d[a, b] + d[b, c] + 1e-12


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            MetricInstance(np.zeros((0, 1)), [], np.zeros((1, 1)), [0.0])
        with pytest.raises(ValueError, match="at least one"):
            MetricInstance(np.zeros((1, 1)), [0], np.zeros((0, 1)), [])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            MetricInstance(np.zeros((1, 1)), [0], np.zeros((1, 2)), [0.0])
        with pytest.raises(ValueError, match="at least one column"):
            MetricInstance(np.zeros((1, 0)), [0], np.zeros((1, 0)), [0.0])

    def test_nonfinite_coordinate(self):
        with pytest.raises(ValueError, match="non-finite"):
            MetricInstance(np.array([[math.nan]]), [0], np.zeros((1, 1)), [0.0])
        with pytest.raises(ValueError, match="non-finite"):
            MetricInstance(np.zeros((1, 1)), [0], np.array([[math.inf]]), [0.0])

    def test_negative_cost_and_group(self):
        with pytest.raises(ValueError, match="opening cost"):
            MetricInstance(np.zeros((1, 1)), [0], np.zeros((1, 1)), [-1.0])
        with pytest.raises(ValueError, match="group index"):
            MetricInstance(np.zeros((1, 1)), [-1], np.zeros((1, 1)), [0.0])
        # an infinite opening cost is allowed
        MetricInstance(np.zeros((1, 1)), [0], np.zeros((1, 1)), [math.inf])

    @pytest.mark.parametrize("flag", [1, 0, "yes", None, np.int64(1), 1.0])
    def test_pruned_must_be_a_bool(self, flag):
        with pytest.raises(ValueError, match=re.escape(f"pruned={flag!r} is not a bool")):
            MetricInstance(np.zeros((1, 1)), [0], np.zeros((1, 1)), [0.0], pruned=flag)

    def test_pruned_flag_is_stored_as_a_bool(self):
        inst = MetricInstance(np.zeros((1, 1)), [0], np.zeros((1, 1)), [0.0], pruned=np.bool_(True))
        assert inst.pruned is True
        assert MetricInstance(np.zeros((1, 1)), [0], np.zeros((1, 1)), [0.0]).pruned is False

    def test_stored_arrays_are_read_only(self):
        coords = np.array([[0.0], [1.0]])
        inst = MetricInstance(coords, [0, 0], np.array([[0.0]]), [2.0])
        coords[0, 0] = 5.0  # the instance holds its own copy
        assert inst.client_coords[0, 0] == 0.0
        pruned = pickle.loads(pickle.dumps(prune_pairs(inst)))  # as sent to a sweep worker
        arrays = (pruned.client_coords, pruned.groups, pruned.facility_coords,
                  pruned.open_costs, *pruned.pair_arrays, pruned.distances())
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_budget_validation(self):
        inst = simple_instance([[0.0], [1.0]], [0, 1], [[0.0]], [0.0])
        OutlierBudgets((1, 1)).validate_for(inst)
        with pytest.raises(ValueError, match="exceeds"):
            OutlierBudgets((2, 0)).validate_for(inst)
        with pytest.raises(ValueError, match="groups"):
            OutlierBudgets((1,)).validate_for(inst)
        with pytest.raises(ValueError):
            OutlierBudgets((-1, 0))

    @pytest.mark.parametrize("cap", [2.5, 2.0, np.float64(2.0), True, np.bool_(True), "2"])
    def test_budget_entries_must_be_integers(self, cap):
        # 2.5 was truncated to 2 and True read as 1
        with pytest.raises(ValueError, match=re.escape(f"budget {cap!r} for group 1 is not an integer")):
            OutlierBudgets((2, cap))

    def test_budget_integer_widths(self):
        caps = OutlierBudgets((np.int8(2), np.uint16(1), np.int64(0))).per_group
        assert caps == (2, 1, 0) and all(type(c) is int for c in caps)


class TestPrunePairs:
    def test_median_of_two_keeps_fallback(self):
        # distances {1, 3}, median 2: only the near pair survives the cut,
        # the far client keeps its nearest facility
        inst = simple_instance([[1.0], [3.0]], [0, 0], [[0.0]], [0.0])
        pruned = prune_pairs(inst)
        assert pruned.allowed_pairs == frozenset({(0, 0), (0, 1)})

    def test_all_equidistant_falls_back_to_nearest(self):
        inst = simple_instance([[1.0], [-1.0], [1.0]], [0, 0, 0], [[0.0]], [0.0])
        pruned = prune_pairs(inst)
        assert pruned.allowed_pairs == frozenset({(0, 0), (0, 1), (0, 2)})

    def test_four_distances_strict_lower_half(self):
        # facilities at 0 and -1, clients at 1 and 3: distances {1,2,3,4},
        # median 2.5, kept pairs d in {1,2} plus the far client's nearest
        inst = simple_instance([[1.0], [3.0]], [0, 0], [[0.0], [-1.0]], [0.0, 0.0])
        pruned = prune_pairs(inst)
        assert pruned.allowed_pairs == frozenset({(0, 0), (1, 0), (0, 1)})

    def test_refuses_pruned_instance(self):
        inst = simple_instance([[1.0]], [0], [[0.0]], [0.0])
        with pytest.raises(ValueError, match="already"):
            prune_pairs(prune_pairs(inst))

    def test_matches_brute_force_on_random_suite(self, random_suite):
        for inst, _ in random_suite:
            dist = inst.distances()
            median = np.median(dist)
            expected = []
            for j in range(inst.n_clients):
                kept = [i for i in range(inst.n_facilities) if dist[i, j] < median]
                if not kept:
                    kept = [min(range(inst.n_facilities), key=lambda i: (dist[i, j], i))]
                expected += [(i, j) for i in kept]
            pruned = prune_pairs(inst)
            got = list(zip(*(half.tolist() for half in pruned.pair_arrays)))
            assert got == expected
            assert pruned.allowed_pairs == frozenset(expected)

    def test_unpruned_has_no_allowed_pairs(self):
        inst = simple_instance([[1.0]], [0], [[0.0]], [0.0])
        assert inst.allowed_pairs is None and not inst.pruned
        fac, cli = inst.pair_arrays  # the full product
        assert list(zip(fac.tolist(), cli.tolist())) == [(0, 0)]

    def test_never_strands_a_client(self, rng):
        for _ in range(25):
            inst = random_instance(rng, max_n=10, max_m=5)
            pruned = prune_pairs(inst)
            covered = {j for _, j in pruned.allowed_pairs}
            assert covered == set(range(inst.n_clients))

    def test_pruned_instance_keeps_the_distance_matrix(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_n=30, max_m=12, dim=3)
            pruned = prune_pairs(inst)
            assert pruned.distances() is inst.distances()
            fresh = MetricInstance(inst.client_coords, inst.groups, inst.facility_coords, inst.open_costs)
            assert pruned.distances().tobytes() == fresh.distances().tobytes()
            copy = pickle.loads(pickle.dumps(pruned))  # as sent to a sweep worker
            assert "_distances" not in vars(copy)  # recomputed on first use
            assert copy.distances() is not inst.distances()
            assert copy.distances().tobytes() == fresh.distances().tobytes()


def _stranding_instances(rng):
    """Instances where some client's every pair is cut: far clusters,
    equidistant clients and integer-grid ties."""
    cases = []
    for _ in range(20):
        n, m = int(rng.integers(2, 15)), int(rng.integers(1, 6))
        far = rng.random(n) < 0.5
        far[0] = True
        clients = rng.random((n, 2)) + 10.0 * far[:, None]
        cases.append(MetricInstance(clients, np.zeros(n, dtype=np.int64), rng.random((m, 2)), np.ones(m)))
        grid = rng.integers(0, 3, (n, 2)).astype(float)
        cases.append(MetricInstance(grid, np.zeros(n, dtype=np.int64),
                                    rng.integers(0, 3, (m, 2)).astype(float), np.ones(m)))
    cases.append(MetricInstance(np.array([[1.0], [-1.0], [1.0]]), [0, 0, 0], np.zeros((1, 1)), [0.0]))
    return cases


def _assert_pairs_equal(pruned: MetricInstance, eager) -> None:
    for got, want in zip(pruned.pair_arrays, eager, strict=True):
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable and got.flags.c_contiguous


class TestPairsOnFirstRead:
    """``prune_pairs`` returns a copy that computes its pairs when first read."""

    def test_first_read_equals_the_eager_reference(self, random_suite, rng):
        cases = [inst for inst, _ in random_suite] + _stranding_instances(rng)
        assert any(prune_pairs(inst).pair_arrays[1].size > np.count_nonzero(
            inst.distances() < np.median(inst.distances())) for inst in cases)  # a fallback runs
        for inst in cases:
            eager = eager_pairs(inst.distances())
            # either accessor computes the pairs, whichever is read first
            for first in ("pair_arrays", "allowed_pairs"):
                pruned = prune_pairs(inst)
                assert pruned.pruned and "pair_arrays" not in vars(pruned)
                getattr(pruned, first)
                assert "pair_arrays" in vars(pruned)
                _assert_pairs_equal(pruned, eager)
                assert pruned.allowed_pairs == frozenset(zip(eager[0].tolist(), eager[1].tolist()))

    def test_computed_once_and_only_when_read(self, rng, monkeypatch):
        calls = []
        real = instance_mod._below_median_pairs
        monkeypatch.setattr(instance_mod, "_below_median_pairs", lambda d: calls.append(1) or real(d))
        inst = random_instance(rng, max_n=30, max_m=8)
        pruned = prune_pairs(inst)
        gdf_nf(pruned, 2)
        ls_nf(pruned, 2, 1)
        assert calls == []
        for _ in range(2):
            pruned.pair_arrays, pruned.allowed_pairs
        assert calls == [1]
        inst.pair_arrays  # the parent stays unpruned: its full product
        assert not inst.pruned and calls == [1]

    def test_pickled_copy_carries_the_flag_not_the_arrays(self, rng):
        inst = random_instance(rng, max_n=40, max_m=10, min_n=30)
        pruned = prune_pairs(inst)
        blob = pickle.dumps(pruned)
        eager = eager_pairs(inst.distances())
        for arr in (*eager, inst.distances()):
            assert arr.tobytes() not in blob
        pruned.pair_arrays  # computing the pairs leaves the pickle as it was
        assert len(pickle.dumps(pruned)) == len(blob)
        copy = pickle.loads(blob)  # as sent to a sweep worker
        assert copy.pruned is True and "pair_arrays" not in vars(copy)
        _assert_pairs_equal(copy, eager)
        for arr in copy.pair_arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_copies_keep_the_pairs(self, rng):
        inst = random_instance(rng, max_n=20, max_m=6)
        pruned = prune_pairs(inst)
        # replace() carries the flag, so the copy computes the same pairs
        _assert_pairs_equal(replace(pruned, open_costs=inst.open_costs * 2), eager_pairs(inst.distances()))
        with pytest.raises(ValueError, match="already"):
            prune_pairs(pruned)


class TestSolutionCost:
    def make(self):
        inst = simple_instance([[2.0]], [0], [[0.0]], [5.0])
        sol = assign_nearest(inst, [0], mask(1))
        return inst, sol

    def test_facility_location_objective(self):
        inst, sol = self.make()
        assert solution_cost(inst, sol, "facility_location") == pytest.approx(7.0)

    def test_k_median_objective(self):
        inst, sol = self.make()
        assert solution_cost(inst, sol, "k_median") == pytest.approx(2.0)

    def test_all_outliers_only_facility_cost(self):
        inst = simple_instance([[2.0]], [0], [[0.0]], [5.0])
        sol = assign_nearest(inst, [0], mask(1, [0]))
        assert solution_cost(inst, sol, "facility_location") == pytest.approx(5.0)

    def test_rejects_closed_facility(self):
        # a served client whose facilities are all closed has nowhere to go
        inst, sol = self.make()
        bad = replace(sol, open=frozenset())
        with pytest.raises(ValueError, match="no open facility"):
            solution_cost(inst, bad, "facility_location")

    def test_rejects_unknown_objective(self):
        inst, sol = self.make()
        with pytest.raises(ValueError):
            solution_cost(inst, sol, "k_center")

    def test_invariant_under_client_permutation(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            budgets = random_budgets(rng, inst)
            perm = rng.permutation(inst.n_clients)
            inst2 = MetricInstance(
                inst.client_coords[perm], inst.groups[perm], inst.facility_coords, inst.open_costs
            )
            opens = [0]
            sol1 = assign_nearest(inst, opens, mask(inst.n_clients))
            sol2 = assign_nearest(inst2, opens, mask(inst.n_clients))
            assert solution_cost(inst, sol1, "facility_location") == pytest.approx(
                solution_cost(inst2, sol2, "facility_location")
            )


    @pytest.mark.parametrize("assignment, opens, message", [
        ([True, True, True], {-1}, "open index -1 names no facility"),
        ([True, False, False], {0, 2}, "open index 2 names no facility"),
        ([False, False, False], {5}, "open index 5 names no facility"),
        pytest.param([True, True], {0}, r"one bool per client \(3\), not bool of shape \(2,\)", id="short-mask"),
        pytest.param([True] * 4, {0}, r"one bool per client \(3\), not bool of shape \(4,\)", id="long-mask"),
    ])
    def test_rejects_indices_that_name_nothing(self, assignment, opens, message):
        # ``assignment`` marks the clients the solution serves.  A negative
        # index would wrap: facility -1 would be costed as facility 1.  A mask
        # of another length or dtype is not one flag per client of ``inst``.
        inst = simple_instance([[0.0], [1.0], [5.0]], [0, 0, 0], [[0.0], [5.0]], [1.0, 4.0])
        bad = IntegralSolution(inst, frozenset(opens), ~np.array(assignment), 0.0, 0.0)
        for objective in (FACILITY_LOCATION, K_MEDIAN):
            with pytest.raises(ValueError, match=message):
                solution_cost(inst, bad, objective)


class TestAssignNearest:
    def test_tie_breaks_to_lowest_facility_index(self):
        inst = simple_instance([[0.0]], [0], [[1.0], [-1.0]], [0.0, 0.0])
        sol = assign_nearest(inst, [1, 0], mask(1))
        assert sol.assignment[0] == 0

    def test_no_open_facility_with_served_client(self):
        inst = simple_instance([[0.0]], [0], [[1.0]], [0.0])
        with pytest.raises(ValueError, match="no open facility"):
            assign_nearest(inst, [], mask(1))

    def test_empty_open_all_outliers_ok(self):
        inst = simple_instance([[0.0]], [0], [[1.0]], [3.0])
        sol = assign_nearest(inst, [], mask(1, [0]))
        assert sol.facility_cost == 0.0 and sol.connection_cost == 0.0

    def test_dropped_clients_are_filed_by_their_group(self):
        inst = simple_instance([[0.0], [1.0], [2.0]], [0, 1, 1], [[0.0]], [1.0])
        sol = assign_nearest(inst, [0], mask(3, [1]))
        assert outliers(sol) == (frozenset(), frozenset({1}))
        assert sol.outlier_counts() == (0, 1)
        assert unfairness(OutlierBudgets((0, 1)), sol) == 1.0
        # any sequence of one bool per client
        for dropped in ([False, True, True], (False, True, True), np.array([False, True, True])):
            assert outliers(assign_nearest(inst, [0], dropped)) == (frozenset(), frozenset({1, 2}))

    def test_outliers_equal_dropped_filed_by_groups(self, rng):
        for _ in range(100):
            inst = random_instance(rng, max_n=20, max_m=5, max_groups=4)
            dropped = rng.integers(0, inst.n_clients, int(rng.integers(0, inst.n_clients + 3)))
            sol = assign_nearest(inst, range(inst.n_facilities), mask(inst.n_clients, dropped))
            for g, chosen in enumerate(outliers(sol)):
                assert chosen == {int(j) for j in dropped if inst.groups[j] == g}
            assert sol.outlier_counts() == tuple(len(chosen) for chosen in outliers(sol))
            assert set(sol.assignment) == set(range(inst.n_clients)) - set(dropped.tolist())

    @pytest.mark.parametrize("dropped", [[99], [-1], [0, 3], [-3, 1]])
    def test_rejects_index_outside_the_clients(self, dropped):
        # the dropped clients are a mask: client indices, in range or not,
        # are rejected rather than read as one
        inst = simple_instance([[0.0], [1.0], [2.0]], [0, 1, 1], [[0.0]], [1.0])
        with pytest.raises(ValueError, match=r"one bool per client \(3\), not int64"):
            assign_nearest(inst, [0], dropped)

    @pytest.mark.parametrize("dropped, entry", [
        ([1.5], "1.5"), ([True, False], "True"), ([2, True], "True"), ([np.float64(1.0)], "1.0"),
        (np.array([1.0]), "1.0"), (np.array([False, True, True]), "False"), ((np.bool_(True),), "True"),
    ])
    def test_rejects_float_and_bool_entries(self, dropped, entry):
        # ``entry`` names the case.  Over four clients none of these is one
        # bool per client: a float entry is no bool, and the bools are too few.
        inst = simple_instance([[0.0], [1.0], [2.0], [3.0]], [0, 1, 1, 0], [[0.0]], [1.0])
        arr = np.asarray(dropped)
        with pytest.raises(ValueError, match=re.escape(f"(4), not {arr.dtype} of shape {arr.shape}")):
            assign_nearest(inst, [0], dropped)

    @pytest.mark.parametrize("opens, message", [
        ([-1], "open index -1 names no facility"), ([7], "open index 7 names no facility"),
        ([0, 2], "open index 2 names no facility"), (np.array([1, -2]), "open index -2"),
        ([1.5], "open facility 1.5 is not an integer index"),
        ([True], "open facility True is not an integer index"),
        ([np.float64(1.0)], "open facility 1.0 is not an integer index"),
        (np.array([False, True]), "open facility False is not an integer index"),
    ])
    def test_rejects_open_entries_that_name_no_facility(self, opens, message):
        # -1 would open facility 1 under the name -1, 1.5 and True would open
        # facility 1, and 7 would fail with an IndexError
        inst = simple_instance([[0.0], [1.0], [2.0]], [0, 1, 1], [[0.0], [3.0]], [1.0, 2.0])
        for dropped in (mask(3), mask(3, [0, 1, 2])):
            with pytest.raises(ValueError, match=message):
                assign_nearest(inst, opens, dropped)

    def test_accepts_integer_open_facilities_of_any_width(self):
        inst = simple_instance([[0.0], [1.0], [2.0]], [0, 1, 1], [[0.0], [3.0]], [1.0, 2.0])
        want = assign_nearest(inst, [1, 0], mask(3))
        for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64):
            sol = assign_nearest(inst, np.array([1, 0], dtype=dtype), mask(3))
            assert solution_parts(sol) == solution_parts(want)
            assert {type(i) for i in sol.open} == {int}

    def test_keeps_a_read_only_copy_of_the_mask(self):
        inst = simple_instance([[0.0], [1.0], [2.0]], [0, 1, 1], [[0.0]], [1.0])
        dropped = mask(3, [2])
        sol = assign_nearest(inst, [0], dropped)
        dropped[1] = True  # the caller's array stays its own
        assert outliers(sol) == (frozenset(), frozenset({2})) and sol.inst is inst
        with pytest.raises(ValueError, match="read-only"):
            sol.dropped[0] = True
        for empty in ([], np.array([], dtype=bool), iter([])):
            with pytest.raises(ValueError, match="one bool per client"):
                assign_nearest(inst, [0], empty)

    def test_rejects_per_group_sets(self):
        # the dropped clients are one flat collection, not one set per group
        inst = simple_instance([[0.0], [1.0]], [0, 1], [[0.0]], [1.0])
        for dropped in ([set(), {1}], [[0], [1]], np.array([[0], [1]])):
            with pytest.raises((TypeError, ValueError)):
                assign_nearest(inst, [0], dropped)


class TestTotalBudget:
    """The non-fair algorithms share one check of their total budget."""

    ALGOS = {
        "gdf_nf": lambda inst, total: solution_parts(gdf_nf(inst, total)),
        "ls_nf": lambda inst, total: solution_parts(ls_nf(inst, total, 1)),
        "r_ls_nf": lambda inst, total: solution_parts(r_ls_nf(inst, total, 1)),
    }

    @staticmethod
    def _instance():
        rng = np.random.default_rng(5)
        return simple_instance(rng.random((10, 2)).tolist(), [0] * 6 + [1] * 4,
                               rng.random((3, 2)).tolist(), [0.5, 1.0, 2.0])

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    @pytest.mark.parametrize("total", [2.5, 2.0, np.float64(2.0), True, np.bool_(True)])
    def test_rejects_float_and_bool(self, algo, total):
        # 2.5 made gdf_nf drop 3 clients and r_ls_nf run; True dropped 1
        with pytest.raises(ValueError, match=re.escape(f"total budget {total!r} is not an integer")):
            self.ALGOS[algo](self._instance(), total)

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_range_and_integer_widths(self, algo):
        inst = self._instance()
        for total in (-1, 11, np.int64(11)):
            with pytest.raises(ValueError, match="total budget out of range"):
                self.ALGOS[algo](inst, total)
        want = self.ALGOS[algo](inst, 2)
        for total in (np.int8(2), np.uint16(2), np.int64(2)):
            assert self.ALGOS[algo](inst, total) == want


class TestK:
    """The k-median algorithms and oracle share one check of ``k``."""

    ALGOS = {
        "ls_nf": lambda inst, k: solution_parts(ls_nf(inst, 2, k)),
        "r_ls_f": lambda inst, k: solution_parts(r_ls_f(inst, OutlierBudgets((1, 1)), k)),
        "r_ls_nf": lambda inst, k: solution_parts(r_ls_nf(inst, 2, k)),
        "exact_kmfo": lambda inst, k: solution_parts(exact_kmfo(inst, OutlierBudgets((1, 1)), k)),
        "PenaltyInstance": lambda inst, k: PenaltyInstance(inst, k, np.ones(inst.n_clients)).k,
    }

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(2.0), True, np.bool_(True)])
    def test_rejects_float_and_bool(self, algo, k):
        # True ran as k = 1; 2.5 and np.float64(2.0) raised a TypeError from range
        with pytest.raises(ValueError, match=re.escape(f"k={k!r} is not an integer")):
            self.ALGOS[algo](TestTotalBudget._instance(), k)

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_range_and_integer_widths(self, algo):
        inst = TestTotalBudget._instance()
        for k in (0, 4, np.int64(4)):
            with pytest.raises(ValueError, match=r"outside \[1, 3\]"):
                self.ALGOS[algo](inst, k)
        want = self.ALGOS[algo](inst, 2)
        for k in (np.int8(2), np.uint16(2), np.int64(2)):
            assert self.ALGOS[algo](inst, k) == want


class TestUnfairness:
    def make_sol(self, counts):
        # group g has counts[g] + 1 clients, all but one dropped
        sizes = [c + 1 for c in counts]
        groups = np.repeat(np.arange(len(counts)), sizes)
        inst = MetricInstance(np.zeros((len(groups), 1)), groups, np.zeros((1, 1)), [0.0])
        dropped = np.concatenate([np.arange(size) < c for size, c in zip(sizes, counts)])
        return IntegralSolution(inst, frozenset(), dropped, 0.0, 0.0)

    def test_over_budget_ratio(self):
        assert unfairness(OutlierBudgets((10, 10)), self.make_sol([5, 12])) == pytest.approx(1.2)

    def test_floor_at_one(self):
        assert unfairness(OutlierBudgets((10, 10)), self.make_sol([3, 7])) == 1.0

    def test_zero_budget_violation_is_infinite(self):
        assert unfairness(OutlierBudgets((0, 5)), self.make_sol([1, 0])) == math.inf

    def test_zero_budget_unused_is_fine(self):
        assert unfairness(OutlierBudgets((0, 5)), self.make_sol([0, 5])) == 1.0

    def test_always_at_least_one_and_one_iff_within(self, rng):
        for _ in range(50):
            caps = tuple(int(v) for v in rng.integers(0, 6, size=3))
            used = [int(rng.integers(0, c + 2)) for c in caps]
            if any(c == 0 and u > 0 for c, u in zip(caps, used)):
                continue
            value = unfairness(OutlierBudgets(caps), self.make_sol(used))
            assert value >= 1.0
            within = all(u <= c for c, u in zip(caps, used))
            assert (value == 1.0) == within


# ---------------------------------------------------------------------------
# assign_nearest and solution_cost as they were written with per-client
# Python loops, and the strided argmin scan they called, kept verbatim as the
# reference the array forms must reproduce bit for bit (cost bits and the
# assignment's order).  The reference takes one outlier set per group and
# returns the solution as it was stored before the dropped-client mask: a
# client -> facility dict and one outlier set per group (``_DictSolution``).


@dataclass(frozen=True)
class _DictSolution:
    open: frozenset[int]
    outliers: tuple[frozenset[int], ...]
    assignment: Mapping[int, int]
    facility_cost: float
    connection_cost: float


def nearest_open(inst: MetricInstance, open_facilities: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-client nearest facility among ``open_facilities``.

    Returns (distance, facility index) arrays; ties resolve to the lowest
    facility index.
    """
    order = np.sort(np.asarray(list(open_facilities), dtype=np.int64))
    if order.size == 0:
        raise ValueError("no open facilities")
    sub = inst.distances()[order]
    pos = np.argmin(sub, axis=0)  # first occurrence = lowest index after sort
    return sub[pos, np.arange(inst.n_clients)], order[pos]


def _reference_assign_nearest(
    inst: MetricInstance,
    open_facilities: Iterable[int],
    outliers: Sequence[Iterable[int]],
) -> _DictSolution:
    open_set = frozenset(int(i) for i in open_facilities)
    outlier_sets = tuple(frozenset(int(j) for j in grp) for grp in outliers)
    if len(outlier_sets) != inst.n_groups:
        raise ValueError("need one outlier set per group")
    dropped = set().union(*outlier_sets) if outlier_sets else set()
    served = [j for j in range(inst.n_clients) if j not in dropped]
    facility_cost = float(inst.open_costs[sorted(open_set)].sum()) if open_set else 0.0
    if not served:
        return _DictSolution(open_set, outlier_sets, {}, facility_cost, 0.0)
    if not open_set:
        raise ValueError("no open facility but some clients are not outliers")
    dist, fac = nearest_open(inst, sorted(open_set))
    assignment = {j: int(fac[j]) for j in served}
    connection = float(sum(dist[j] for j in served))
    return _DictSolution(open_set, outlier_sets, assignment, facility_cost, connection)


def _reference_solution_cost(inst: MetricInstance, sol: _DictSolution, objective: str) -> float:
    if objective not in (FACILITY_LOCATION, K_MEDIAN):
        raise ValueError(f"unknown objective {objective!r}")
    for j, i in sol.assignment.items():
        if i not in sol.open:
            raise ValueError(f"client {j} assigned to closed facility {i}")
    connection = sum(inst.distance(i, j) for j, i in sol.assignment.items())
    if objective == K_MEDIAN:
        return float(connection)
    facility = float(inst.open_costs[sorted(sol.open)].sum()) if sol.open else 0.0
    return facility + float(connection)


def _dict_solution_cost(inst: MetricInstance, sol: _DictSolution, objective: str) -> float:
    """``solution_cost`` as it was when a solution stored its assignment dict,
    kept verbatim: the reference the column-wise argmin must match bit for bit."""
    if objective not in (FACILITY_LOCATION, K_MEDIAN):
        raise ValueError(f"unknown objective {objective!r}")
    size = len(sol.assignment)
    clients = np.fromiter(sol.assignment.keys(), dtype=np.int64, count=size)
    facilities = np.fromiter(sol.assignment.values(), dtype=np.int64, count=size)
    stray = clients[(clients < 0) | (clients >= inst.n_clients)]
    if stray.size:
        raise ValueError(f"assigned index {stray[0]} names no client (there are {inst.n_clients})")
    closed = np.flatnonzero(~np.isin(facilities, list(sol.open)))
    if closed.size:
        p = closed[0]
        raise ValueError(f"client {clients[p]} assigned to closed facility {facilities[p]}")
    stray = sorted(i for i in sol.open if not 0 <= i < inst.n_facilities)
    if stray:
        raise ValueError(f"open index {stray[0]} names no facility (there are {inst.n_facilities})")
    # left to right in the assignment's order
    connection = float(np.cumsum(inst.distances()[facilities, clients])[-1]) if size else 0.0
    if objective == K_MEDIAN:
        return connection
    facility = float(inst.open_costs[sorted(sol.open)].sum()) if sol.open else 0.0
    return facility + connection


# From Python 3.12 on, ``sum`` adds Python floats with compensation, so the
# reference's cost (a sum of Python floats) is then no longer left to right.
_SUM_IS_LEFT_TO_RIGHT = sys.version_info < (3, 12)


def _solution_parts(sol) -> tuple:
    """A solution or a ``_DictSolution`` as comparable parts: the open set,
    the outliers per group, the assignment in order and the cost bits."""
    per_group = sol.outliers if isinstance(sol, _DictSolution) else outliers(sol)
    return (sol.open, per_group, list(sol.assignment.items()),
            float(sol.facility_cost).hex(), float(sol.connection_cost).hex())


def _assert_costs_match(inst: MetricInstance, got: IntegralSolution, want: _DictSolution) -> None:
    """The column-wise argmin's cost equals the dict-based one bit for bit."""
    for objective in (FACILITY_LOCATION, K_MEDIAN):
        assert solution_cost(inst, got, objective).hex() == _dict_solution_cost(inst, want, objective).hex()


def _tied_instance(rng, n: int = 4500) -> MetricInstance:
    """n clients and 100 facilities on a small integer grid, with copies of
    facility 4 at every ninth index: many distances tie."""
    clients = rng.integers(0, 6, (n, 3)).astype(float)
    facilities = rng.integers(0, 6, (100, 3)).astype(float)
    facilities[::9] = facilities[4]
    return MetricInstance(clients, rng.integers(0, 3, n), facilities, np.ones(100))


class TestArrayFormsMatchReference:
    """``assign_nearest`` and ``solution_cost`` against the loop versions."""

    @staticmethod
    def random_case(rng):
        grid = rng.random() < 0.5  # integer coordinates: tied distances
        inst = random_instance(rng, max_n=40, max_m=8, dim=int(rng.integers(1, 4)))
        if grid:
            inst = MetricInstance(rng.integers(0, 4, inst.client_coords.shape).astype(float), inst.groups,
                                  rng.integers(0, 4, inst.facility_coords.shape).astype(float),
                                  inst.open_costs)
        m = inst.n_facilities
        opens = rng.permutation(m)[: int(rng.integers(0, m + 1))].tolist()
        drop = rng.random(inst.n_clients) < rng.choice([0.0, 0.3, 1.0])
        outliers = [set(np.flatnonzero(drop & (inst.groups == g)).tolist()) for g in range(inst.n_groups)]
        return inst, opens, drop, outliers

    def test_random_cases(self, rng):
        compared = 0
        for _ in range(300):
            inst, opens, drop, outliers = self.random_case(rng)
            try:
                want = _reference_assign_nearest(inst, opens, outliers)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)):
                    assign_nearest(inst, opens, drop)
                continue
            got = assign_nearest(inst, opens, drop)
            assert _solution_parts(got) == _solution_parts(want)
            _assert_costs_match(inst, got, want)
            for objective in (FACILITY_LOCATION, K_MEDIAN):
                cost = solution_cost(inst, got, objective)
                ref = _reference_solution_cost(inst, want, objective)
                if _SUM_IS_LEFT_TO_RIGHT:
                    assert cost.hex() == ref.hex()
                else:
                    assert cost == pytest.approx(ref, rel=1e-12)
            compared += 1
        assert compared > 200

    def test_large_draw_cost_bits(self, rng):
        inst = MetricInstance(rng.random((4500, 6)), np.zeros(4500, dtype=np.int64),
                              rng.random((100, 6)), np.ones(100))
        outliers = [set(rng.choice(4500, 225, replace=False).tolist())]
        got = assign_nearest(inst, [3, 17, 40, 41, 90], mask(4500, outliers[0]))
        want = _reference_assign_nearest(inst, [3, 17, 40, 41, 90], outliers)
        assert _solution_parts(got) == _solution_parts(want)
        assert solution_cost(inst, got, K_MEDIAN) == got.connection_cost
        if _SUM_IS_LEFT_TO_RIGHT:
            assert solution_cost(inst, got, K_MEDIAN).hex() == _reference_solution_cost(inst, want, K_MEDIAN).hex()

    def test_many_open_rows_with_ties(self, rng):
        # 60 of 100 facilities open over 4500 clients; integer coordinates and
        # copies of facility 4 tie many distances
        inst = _tied_instance(rng)
        opens = rng.permutation(100)[:60].tolist() + [4]
        drop = rng.random(4500) < 0.05
        outliers = [set(np.flatnonzero(drop & (inst.groups == g)).tolist()) for g in range(3)]
        got = assign_nearest(inst, opens, drop)
        want = _reference_assign_nearest(inst, opens, outliers)
        assert _solution_parts(got) == _solution_parts(want)

    def test_out_of_range_outliers_name_no_client(self):
        # client indices, in range or not, are no mask: an error, not a silent no-op
        inst = simple_instance([[0.0], [2.0], [5.0]], [0, 0, 0], [[1.0]], [1.0])
        for dropped in ({-1, 7}, {-3, 1, 3}, [0, 1, 2]):
            with pytest.raises(ValueError, match="one bool per client"):
                assign_nearest(inst, [0], dropped)
        got = assign_nearest(inst, [0], mask(3))
        assert _solution_parts(got) == _solution_parts(_reference_assign_nearest(inst, [0], [set()]))

    def test_empty_assignment(self):
        inst = simple_instance([[0.0]], [0], [[1.0]], [3.0])
        sol = assign_nearest(inst, [0], mask(1, [0]))
        want = _reference_assign_nearest(inst, [0], [{0}])
        for objective in (FACILITY_LOCATION, K_MEDIAN):
            assert solution_cost(inst, sol, objective).hex() == _reference_solution_cost(inst, want, objective).hex()
        _assert_costs_match(inst, sol, want)


class TestColumnArgminMatchesDictCost:
    """``solution_cost``'s column-wise argmin against the dict-based
    ``solution_cost`` it replaced, bit for bit."""

    def test_random_suite(self, random_suite):
        rng = np.random.default_rng(7)
        for inst, budgets in random_suite:
            m = inst.n_facilities
            opens = rng.permutation(m)[: int(rng.integers(1, m + 1))].tolist()
            drop = np.zeros(inst.n_clients, dtype=bool)
            for members, cap in zip(inst.group_members, budgets.per_group):
                drop[rng.permutation(members)[:cap]] = True
            got = assign_nearest(inst, opens, drop)
            want = _reference_assign_nearest(inst, opens, [members[drop[members]].tolist()
                                                            for members in inst.group_members])
            assert dict(got.assignment) == want.assignment
            _assert_costs_match(inst, got, want)

    def test_forced_ties_go_to_the_lowest_facility(self, rng):
        inst = _tied_instance(rng, n=300)
        copies = list(range(0, 100, 9)) + [4]  # facility 4 and its copies, facility 0 the lowest
        for opens in (copies, rng.permutation(100)[:30].tolist() + copies):
            got = assign_nearest(inst, opens, mask(300))
            want = _reference_assign_nearest(inst, opens, [set(), set(), set()])
            # the reference takes the lowest index among tied facilities
            assert list(got.assignment.items()) == list(want.assignment.items())
            assert not set(got.assignment.values()) & set(copies[1:])
            _assert_costs_match(inst, got, want)
        assert set(assign_nearest(inst, copies, mask(300)).assignment.values()) == {0}

    def test_sixty_open_of_a_4500_by_100_instance(self, rng):
        inst = _tied_instance(rng)
        opens = rng.permutation(100)[:60].tolist()
        drop = rng.random(4500) < 0.05
        got = assign_nearest(inst, opens, drop)
        want = _reference_assign_nearest(inst, opens, [set(np.flatnonzero(drop & (inst.groups == g)).tolist())
                                                      for g in range(3)])
        assert list(got.assignment.items()) == list(want.assignment.items())
        _assert_costs_match(inst, got, want)

    def test_cost_check_peaks_below_1_1_mb(self, rng):
        # the 60 open rows of 4500 clients alone take 2.16 MB
        inst = _tied_instance(rng)
        opens = rng.permutation(100)[:60].tolist()
        sol = assign_nearest(inst, opens, rng.random(4500) < 0.05)
        assert inst.distances()[opens].nbytes == 2_160_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solution_cost(inst, sol, FACILITY_LOCATION)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1_100_000


def _two_step_nearest_rows(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The former ``nearest_rows`` on the copied rows ``sub``: each column's
    minimum, then the first row holding it."""
    low = sub.min(axis=0)
    first = np.zeros(sub.shape[1], dtype=np.int64)
    for r in range(len(sub) - 1, -1, -1):  # the lowest row holding the minimum is written last
        first[sub[r] == low] = r
    return low, first


class TestNearestRows:
    def test_matches_the_two_step_scan_with_ties(self, rng):
        for _ in range(200):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 40))
            dist = rng.integers(0, 4, (m, n)).astype(float)  # few values: many ties
            dist[rng.integers(0, m, n // 2 + 1)] = dist[0]  # whole rows tie too
            dist += rng.choice([0.0, 0.5], (m, n)) * rng.random((m, n))
            rows = np.sort(rng.permutation(m)[: int(rng.integers(1, m + 1))])
            low, first = nearest_rows(dist, rows)
            want_low, want_pos = _two_step_nearest_rows(dist[rows])
            assert low.tobytes() == want_low.tobytes()
            assert first.dtype == np.int64 and first.tobytes() == rows[want_pos].tobytes()

    def test_assign_nearest_copies_no_open_rows(self, rng):
        # 50 open rows over 4500 clients take 1.8 MB; copying them was the peak
        inst = MetricInstance(rng.random((4500, 6)), np.zeros(4500, dtype=np.int64),
                              rng.random((100, 6)), np.ones(100))
        opens = rng.permutation(100)[:50].tolist()
        rows_bytes = inst.distances()[opens].nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assign_nearest(inst, opens, mask(4500))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < rows_bytes / 2

    def test_assign_nearest_makes_no_per_client_object(self, rng):
        # a client -> facility dict of 4500 entries held about 4,300 int objects
        inst = MetricInstance(rng.random((4500, 6)), rng.integers(0, 3, 4500),
                              rng.random((100, 6)), np.ones(100))
        opens, drop = rng.permutation(100)[:50].tolist(), rng.random(4500) < 0.05
        inst.group_members  # computed once per instance, not per solution
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            sol = assign_nearest(inst, opens, drop)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        package = [tracemalloc.Filter(True, "*/fairfl/*")]
        made = after.filter_traces(package).compare_to(before.filter_traces(package), "filename")
        assert sum(stat.count_diff for stat in made) < 100
        assert sol.outlier_counts() == tuple(np.bincount(inst.groups[drop], minlength=3).tolist())
