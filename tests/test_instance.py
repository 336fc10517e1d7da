import math
import pickle
import sys
from dataclasses import replace
from typing import Iterable, Sequence

import numpy as np
import pytest

from fairfl import (
    IntegralSolution,
    MetricInstance,
    OutlierBudgets,
    assign_nearest,
    prune_pairs,
    solution_cost,
    unfairness,
)
from fairfl import instance as instance_mod
from fairfl.instance import FACILITY_LOCATION, K_MEDIAN, row_blocks
from conftest import random_budgets, random_instance


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

    @pytest.mark.parametrize("block_bytes", [1, 100, 1000, 1 << 40])
    def test_blocked_matrix_equals_whole_product(self, rng, monkeypatch, block_bytes):
        # row blocks only bound the temporaries: every entry is bitwise the
        # one the whole (facilities x clients x dim) product gives
        monkeypatch.setattr(instance_mod, "_BLOCK_BYTES", block_bytes)
        for _ in range(20):
            n, m, dim = rng.integers(1, 40), rng.integers(1, 12), rng.integers(1, 5)
            clients, facs = rng.normal(0, 10, (n, dim)), rng.normal(0, 10, (m, dim))
            inst = MetricInstance(clients, np.zeros(n, int), facs, np.ones(m))
            diff = facs[:, None, :] - clients[None, :, :]
            whole = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            assert inst.distances().tobytes() == whole.tobytes()

    def test_blocked_matrix_at_large_csv_size(self, rng):
        clients, facs = rng.random((4500, 6)), rng.random((100, 6))
        inst = MetricInstance(clients, np.zeros(4500, int), facs, np.ones(100))
        diff = facs[:, None, :] - clients[None, :, :]
        whole = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        assert inst.distances().tobytes() == whole.tobytes()

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

    def test_allowed_pairs_must_cover_clients(self):
        base = simple_instance([[0.0], [1.0]], [0, 0], [[0.0]], [0.0])
        with pytest.raises(ValueError, match="no allowed facility"):
            replace(base, pair_fac=[0], pair_cli=[0])
        with pytest.raises(ValueError, match="out of range"):
            replace(base, pair_fac=[0, 1], pair_cli=[0, 1])
        with pytest.raises(ValueError, match="sorted client-major"):
            replace(base, pair_fac=[0, 0], pair_cli=[1, 0])

    def test_stored_arrays_are_read_only(self):
        coords = np.array([[0.0], [1.0]])
        inst = MetricInstance(coords, [0, 0], np.array([[0.0]]), [2.0])
        coords[0, 0] = 5.0  # the instance holds its own copy
        assert inst.client_coords[0, 0] == 0.0
        pruned = pickle.loads(pickle.dumps(prune_pairs(inst)))  # as sent to a sweep worker
        arrays = (pruned.client_coords, pruned.groups, pruned.facility_coords,
                  pruned.open_costs, pruned.pair_fac, pruned.pair_cli, pruned.distances())
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
            got = list(zip(pruned.pair_fac.tolist(), pruned.pair_cli.tolist()))
            assert got == expected
            assert pruned.allowed_pairs == frozenset(expected)

    def test_unpruned_has_no_allowed_pairs(self):
        inst = simple_instance([[1.0]], [0], [[0.0]], [0.0])
        assert inst.allowed_pairs is None and inst.pair_fac is None

    def test_never_strands_a_client(self, rng):
        for _ in range(25):
            inst = random_instance(rng, max_n=10, max_m=5)
            pruned = prune_pairs(inst)
            covered = {j for _, j in pruned.allowed_pairs}
            assert covered == set(range(inst.n_clients))


class TestSolutionCost:
    def make(self):
        inst = simple_instance([[2.0]], [0], [[0.0]], [5.0])
        sol = assign_nearest(inst, [0], [])
        return inst, sol

    def test_facility_location_objective(self):
        inst, sol = self.make()
        assert solution_cost(inst, sol, "facility_location") == pytest.approx(7.0)

    def test_k_median_objective(self):
        inst, sol = self.make()
        assert solution_cost(inst, sol, "k_median") == pytest.approx(2.0)

    def test_all_outliers_only_facility_cost(self):
        inst = simple_instance([[2.0]], [0], [[0.0]], [5.0])
        sol = assign_nearest(inst, [0], [0])
        assert solution_cost(inst, sol, "facility_location") == pytest.approx(5.0)

    def test_rejects_closed_facility(self):
        inst, sol = self.make()
        bad = type(sol)(frozenset({0}), sol.outliers, {0: 1}, sol.facility_cost, sol.connection_cost)
        with pytest.raises(ValueError, match="closed"):
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
            sol1 = assign_nearest(inst, opens, [])
            sol2 = assign_nearest(inst2, opens, [])
            assert solution_cost(inst, sol1, "facility_location") == pytest.approx(
                solution_cost(inst2, sol2, "facility_location")
            )


class TestAssignNearest:
    def test_tie_breaks_to_lowest_facility_index(self):
        inst = simple_instance([[0.0]], [0], [[1.0], [-1.0]], [0.0, 0.0])
        sol = assign_nearest(inst, [1, 0], [])
        assert sol.assignment[0] == 0

    def test_no_open_facility_with_served_client(self):
        inst = simple_instance([[0.0]], [0], [[1.0]], [0.0])
        with pytest.raises(ValueError, match="no open facility"):
            assign_nearest(inst, [], [])

    def test_empty_open_all_outliers_ok(self):
        inst = simple_instance([[0.0]], [0], [[1.0]], [3.0])
        sol = assign_nearest(inst, [], [0])
        assert sol.facility_cost == 0.0 and sol.connection_cost == 0.0

    def test_dropped_clients_are_filed_by_their_group(self):
        inst = simple_instance([[0.0], [1.0], [2.0]], [0, 1, 1], [[0.0]], [1.0])
        sol = assign_nearest(inst, [0], [1])
        assert sol.outliers == (frozenset(), frozenset({1}))
        assert sol.outlier_counts() == (0, 1)
        assert unfairness(OutlierBudgets((0, 1)), sol) == 1.0
        # repeats and any iterable of indices
        for dropped in ([2, 1, 2], {1, 2}, np.array([2, 1]), range(1, 3)):
            assert assign_nearest(inst, [0], dropped).outliers == (frozenset(), frozenset({1, 2}))

    def test_outliers_equal_dropped_filed_by_groups(self, rng):
        for _ in range(100):
            inst = random_instance(rng, max_n=20, max_m=5, max_groups=4)
            dropped = rng.integers(0, inst.n_clients, int(rng.integers(0, inst.n_clients + 3)))
            sol = assign_nearest(inst, range(inst.n_facilities), dropped.tolist())
            for g, chosen in enumerate(sol.outliers):
                assert chosen == {int(j) for j in dropped if inst.groups[j] == g}
            assert set(sol.assignment) == set(range(inst.n_clients)) - set(dropped.tolist())

    @pytest.mark.parametrize("dropped", [[99], [-1], [0, 3], [-3, 1]])
    def test_rejects_index_outside_the_clients(self, dropped):
        inst = simple_instance([[0.0], [1.0], [2.0]], [0, 1, 1], [[0.0]], [1.0])
        with pytest.raises(ValueError, match="names no client"):
            assign_nearest(inst, [0], dropped)

    def test_rejects_per_group_sets(self):
        # the dropped clients are one flat collection, not one set per group
        inst = simple_instance([[0.0], [1.0]], [0, 1], [[0.0]], [1.0])
        for dropped in ([set(), {1}], [[0], [1]], np.array([[0], [1]])):
            with pytest.raises((TypeError, ValueError)):
                assign_nearest(inst, [0], dropped)


class TestUnfairness:
    def make_sol(self, counts):
        outliers = tuple(frozenset(range(c)) for c in counts)
        from fairfl import IntegralSolution

        return IntegralSolution(frozenset(), outliers, {}, 0.0, 0.0)

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
# assignment's order).  The reference takes one outlier set per group.


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
) -> IntegralSolution:
    open_set = frozenset(int(i) for i in open_facilities)
    outlier_sets = tuple(frozenset(int(j) for j in grp) for grp in outliers)
    if len(outlier_sets) != inst.n_groups:
        raise ValueError("need one outlier set per group")
    dropped = set().union(*outlier_sets) if outlier_sets else set()
    served = [j for j in range(inst.n_clients) if j not in dropped]
    facility_cost = float(inst.open_costs[sorted(open_set)].sum()) if open_set else 0.0
    if not served:
        return IntegralSolution(open_set, outlier_sets, {}, facility_cost, 0.0)
    if not open_set:
        raise ValueError("no open facility but some clients are not outliers")
    dist, fac = nearest_open(inst, sorted(open_set))
    assignment = {j: int(fac[j]) for j in served}
    connection = float(sum(dist[j] for j in served))
    return IntegralSolution(open_set, outlier_sets, assignment, facility_cost, connection)


def _reference_solution_cost(inst: MetricInstance, sol: IntegralSolution, objective: str) -> float:
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


# From Python 3.12 on, ``sum`` adds Python floats with compensation, so the
# reference's cost (a sum of Python floats) is then no longer left to right.
_SUM_IS_LEFT_TO_RIGHT = sys.version_info < (3, 12)


def _solution_parts(sol: IntegralSolution) -> tuple:
    return (sol.open, sol.outliers, list(sol.assignment.items()),
            float(sol.facility_cost).hex(), float(sol.connection_cost).hex())


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
        return inst, opens, outliers

    def test_random_cases(self, rng):
        compared = 0
        for _ in range(300):
            inst, opens, outliers = self.random_case(rng)
            try:
                want = _reference_assign_nearest(inst, opens, outliers)
            except ValueError as err:
                with pytest.raises(ValueError, match=str(err)):
                    assign_nearest(inst, opens, set().union(*outliers))
                continue
            got = assign_nearest(inst, opens, set().union(*outliers))
            assert _solution_parts(got) == _solution_parts(want)
            for objective in (FACILITY_LOCATION, K_MEDIAN):
                cost = solution_cost(inst, got, objective)
                ref = _reference_solution_cost(inst, got, objective)
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
        got = assign_nearest(inst, [3, 17, 40, 41, 90], outliers[0])
        want = _reference_assign_nearest(inst, [3, 17, 40, 41, 90], outliers)
        assert _solution_parts(got) == _solution_parts(want)
        assert solution_cost(inst, got, K_MEDIAN) == got.connection_cost
        if _SUM_IS_LEFT_TO_RIGHT:
            assert solution_cost(inst, got, K_MEDIAN).hex() == _reference_solution_cost(inst, got, K_MEDIAN).hex()

    def test_many_open_rows_with_ties(self, rng):
        # 60 of 100 facilities open over 4500 clients; integer coordinates and
        # copies of facility 4 tie many distances
        clients = rng.integers(0, 6, (4500, 3)).astype(float)
        facilities = rng.integers(0, 6, (100, 3)).astype(float)
        facilities[::9] = facilities[4]
        inst = MetricInstance(clients, rng.integers(0, 3, 4500), facilities, np.ones(100))
        opens = rng.permutation(100)[:60].tolist() + [4]
        drop = rng.random(4500) < 0.05
        outliers = [set(np.flatnonzero(drop & (inst.groups == g)).tolist()) for g in range(3)]
        got = assign_nearest(inst, opens, np.flatnonzero(drop))
        want = _reference_assign_nearest(inst, opens, outliers)
        assert _solution_parts(got) == _solution_parts(want)

    def test_out_of_range_outliers_name_no_client(self):
        # an index outside the clients is an error, not a silent no-op
        inst = simple_instance([[0.0], [2.0], [5.0]], [0, 0, 0], [[1.0]], [1.0])
        for dropped in ({-1, 7}, {-3, 1, 3}):
            with pytest.raises(ValueError, match="names no client"):
                assign_nearest(inst, [0], dropped)
        got = assign_nearest(inst, [0], set())
        assert _solution_parts(got) == _solution_parts(_reference_assign_nearest(inst, [0], [set()]))

    def test_closed_facility_error_names_first_client_in_dict_order(self, rng):
        inst = random_instance(rng, max_n=12, max_m=6, min_n=6)
        sol = assign_nearest(inst, range(inst.n_facilities), [])
        # a dict whose order is not ascending, with two clients on closed facilities
        order = [5, 2, 4, 0, 1, 3]
        assignment = {j: (9 if j in (4, 1) else sol.assignment[j]) for j in order}
        bad = replace(sol, assignment=assignment)
        for objective in (FACILITY_LOCATION, K_MEDIAN):
            with pytest.raises(ValueError) as want:
                _reference_solution_cost(inst, bad, objective)
            with pytest.raises(ValueError) as got:
                solution_cost(inst, bad, objective)
            assert str(got.value) == str(want.value) == "client 4 assigned to closed facility 9"

    def test_empty_assignment(self):
        inst = simple_instance([[0.0]], [0], [[1.0]], [3.0])
        sol = assign_nearest(inst, [0], [0])
        for objective in (FACILITY_LOCATION, K_MEDIAN):
            assert solution_cost(inst, sol, objective).hex() == _reference_solution_cost(inst, sol, objective).hex()
