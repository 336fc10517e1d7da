import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from fairfl import (
    MetricInstance,
    OutlierBudgets,
    assign_nearest,
    prune_pairs,
    solution_cost,
    unfairness,
)
from fairfl import instance as instance_mod
from fairfl.instance import row_blocks
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
        sol = assign_nearest(inst, [0], [set()])
        return inst, sol

    def test_facility_location_objective(self):
        inst, sol = self.make()
        assert solution_cost(inst, sol, "facility_location") == pytest.approx(7.0)

    def test_k_median_objective(self):
        inst, sol = self.make()
        assert solution_cost(inst, sol, "k_median") == pytest.approx(2.0)

    def test_all_outliers_only_facility_cost(self):
        inst = simple_instance([[2.0]], [0], [[0.0]], [5.0])
        sol = assign_nearest(inst, [0], [{0}])
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
            sol1 = assign_nearest(inst, opens, [set() for _ in range(inst.n_groups)])
            sol2 = assign_nearest(inst2, opens, [set() for _ in range(inst2.n_groups)])
            assert solution_cost(inst, sol1, "facility_location") == pytest.approx(
                solution_cost(inst2, sol2, "facility_location")
            )


class TestAssignNearest:
    def test_tie_breaks_to_lowest_facility_index(self):
        inst = simple_instance([[0.0]], [0], [[1.0], [-1.0]], [0.0, 0.0])
        sol = assign_nearest(inst, [1, 0], [set()])
        assert sol.assignment[0] == 0

    def test_no_open_facility_with_served_client(self):
        inst = simple_instance([[0.0]], [0], [[1.0]], [0.0])
        with pytest.raises(ValueError, match="no open facility"):
            assign_nearest(inst, [], [set()])

    def test_empty_open_all_outliers_ok(self):
        inst = simple_instance([[0.0]], [0], [[1.0]], [3.0])
        sol = assign_nearest(inst, [], [{0}])
        assert sol.facility_cost == 0.0 and sol.connection_cost == 0.0


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
