from itertools import combinations

import numpy as np
import pytest

from fairfl import (
    MetricInstance,
    OracleError,
    OutlierBudgets,
    PenaltyInstance,
    build_gap_instance,
    exact_flfo,
    exact_kmfo,
    exact_kmp,
)
from conftest import random_budgets, random_instance


def tiny(client_pts, groups, fac_pts, costs):
    return MetricInstance(np.array(client_pts, float), groups, np.array(fac_pts, float), costs)


def enumerate_flfo(inst, budgets):
    """Independent double brute force: every facility subset crossed with
    every per-group outlier subset."""
    dist = inst.distances()
    best = np.inf
    can_drop_all = all(
        cap >= len(members) for cap, members in zip(budgets.per_group, inst.group_members)
    )
    if can_drop_all:
        best = 0.0
    for size in range(1, inst.n_facilities + 1):
        for subset in combinations(range(inst.n_facilities), size):
            f_cost = inst.open_costs[list(subset)].sum()
            nearest = dist[list(subset)].min(axis=0)
            per_group_best = 0.0
            for members, cap in zip(inst.group_members, budgets.per_group):
                group_best = np.inf
                for drop in range(min(cap, len(members)) + 1):
                    for out in combinations(members.tolist(), drop):
                        kept = [j for j in members if j not in out]
                        group_best = min(group_best, nearest[kept].sum())
                per_group_best += group_best
            best = min(best, f_cost + per_group_best)
    return best


class TestExactFlfo:
    def test_small_gap_instance(self):
        inst, budgets = build_gap_instance(10.0, 4)
        sol = exact_flfo(inst, budgets)
        assert sol.total_cost == pytest.approx(10.0)
        assert sol.open == frozenset({0})

    def test_zero_cost_facility_drops_farthest_per_group(self):
        inst = tiny([[1.0], [4.0], [2.0], [9.0]], [0, 0, 1, 1], [[0.0]], [0.0])
        sol = exact_flfo(inst, OutlierBudgets((1, 1)))
        assert sol.outliers == (frozenset({1}), frozenset({3}))
        assert sol.total_cost == pytest.approx(1.0 + 2.0)

    def test_matches_double_brute_force(self, rng):
        for _ in range(12):
            inst = random_instance(rng, max_n=6, max_m=4)
            budgets = random_budgets(rng, inst)
            sol = exact_flfo(inst, budgets)
            assert sol.total_cost == pytest.approx(enumerate_flfo(inst, budgets), abs=1e-9)

    def test_farthest_drop_equals_outlier_enumeration(self, rng):
        # validates the exchange argument: for a fixed open set the
        # farthest-per-group drop matches trying every outlier subset
        for _ in range(10):
            inst = random_instance(rng, max_n=8, max_m=3)
            budgets = random_budgets(rng, inst)
            dist = inst.distances()
            subset = tuple(range(inst.n_facilities))
            nearest = dist.min(axis=0)
            from fairfl.oracle import _drop_farthest

            kept, _ = _drop_farthest(inst.group_members, nearest, budgets.per_group)
            best = 0.0
            for members, cap in zip(inst.group_members, budgets.per_group):
                group_best = np.inf
                for out in combinations(members.tolist(), min(cap, len(members))):
                    group_best = min(group_best, nearest[[j for j in members if j not in out]].sum())
                best += min(group_best, nearest[members].sum())
            assert kept == pytest.approx(best, abs=1e-9)

    def test_invariant_under_client_reordering(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_n=9, max_m=4)
            budgets = random_budgets(rng, inst)
            perm = rng.permutation(inst.n_clients)
            inst2 = MetricInstance(
                inst.client_coords[perm], inst.groups[perm], inst.facility_coords, inst.open_costs
            )
            a = exact_flfo(inst, budgets)
            b = exact_flfo(inst2, budgets)
            assert a.total_cost == pytest.approx(b.total_cost, abs=1e-9)
            assert a.open == b.open
            # client j of the permuted instance is original client perm[j]
            mapped = tuple(frozenset(int(perm[j]) for j in grp) for grp in b.outliers)
            assert mapped == a.outliers

    def test_lexicographic_tie_break(self):
        inst = tiny([[0.0]], [0], [[0.0], [0.0]], [1.0, 1.0])
        sol = exact_flfo(inst, OutlierBudgets((0,)))
        assert sol.open == frozenset({0})

    def test_size_guard(self):
        inst = tiny([[0.0]], [0], [[float(i)] for i in range(21)], [0.0] * 21)
        with pytest.raises(ValueError, match="guard"):
            exact_flfo(inst, OutlierBudgets((0,)))

    def test_infinite_cost_leaving_the_subset(self):
        # the Gray-code walk opens {0}, {0,1}, {1}, {1,2}, {0,1,2}, {0,2}, {2}:
        # closing facility 1 must not poison the later subsets' opening costs
        inst = tiny([[1.0], [1.0]], [0, 0], [[0.0], [5.0], [1.0]], [10.0, np.inf, 1.0])
        sol = exact_flfo(inst, OutlierBudgets((0,)))
        assert sol.open == frozenset({2})
        assert sol.total_cost == 1.0

    def test_no_finite_subset_raises(self):
        inst = tiny([[0.0], [1.0]], [0, 0], [[0.0], [1.0]], [np.inf, np.inf])
        with pytest.raises(OracleError, match="finite"):
            exact_flfo(inst, OutlierBudgets((1,)))


class TestExactKmfo:
    def test_all_open_drops_farthest(self):
        inst = tiny([[0.0], [1.0], [5.0]], [0, 0, 0], [[0.0], [1.0]], [0.0, 0.0])
        sol = exact_kmfo(inst, OutlierBudgets((1,)), k=2)
        assert sol.open == frozenset({0, 1})
        assert sol.outliers[0] == frozenset({2})
        assert sol.connection_cost == pytest.approx(0.0)

    def test_one_median_collinear(self):
        inst = tiny([[0.0], [1.0], [2.0]], [0, 0, 0], [[0.0], [1.0], [2.0]], [0.0] * 3)
        sol = exact_kmfo(inst, OutlierBudgets((0,)), k=1)
        assert sol.open == frozenset({1})
        assert sol.connection_cost == pytest.approx(2.0)

    def test_matches_independent_recompute(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_n=7, max_m=4)
            budgets = random_budgets(rng, inst)
            k = int(rng.integers(1, inst.n_facilities + 1))
            sol = exact_kmfo(inst, budgets, k)
            dist = inst.distances()
            best = np.inf
            for size in range(1, k + 1):
                for subset in combinations(range(inst.n_facilities), size):
                    nearest = dist[list(subset)].min(axis=0)
                    total = 0.0
                    for members, cap in zip(inst.group_members, budgets.per_group):
                        vals = np.sort(nearest[members])
                        total += vals[: len(vals) - cap].sum() if cap < len(vals) else 0.0
                    best = min(best, total)
            if all(c >= len(g) for c, g in zip(budgets.per_group, inst.group_members)):
                best = min(best, 0.0)
            assert sol.connection_cost == pytest.approx(best, abs=1e-9)

    def test_k_validation(self):
        inst = tiny([[0.0]], [0], [[0.0]], [0.0])
        with pytest.raises(ValueError):
            exact_kmfo(inst, OutlierBudgets((0,)), k=0)


class TestExactKmp:
    def test_infinite_penalties_reduce_to_k_median(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_n=8, max_m=4, cost_scale=0.0)
            k = int(rng.integers(1, inst.n_facilities + 1))
            psol = exact_kmp(PenaltyInstance(inst, k, np.full(inst.n_clients, np.inf)))
            kmfo = exact_kmfo(inst, OutlierBudgets((0,) * inst.n_groups), k)
            assert psol.total_cost == pytest.approx(kmfo.connection_cost, abs=1e-9)

    def test_zero_penalties_cost_nothing(self):
        inst = tiny([[5.0], [7.0]], [0, 0], [[0.0]], [0.0])
        psol = exact_kmp(PenaltyInstance(inst, 1, np.zeros(2)))
        assert psol.total_cost == 0.0

    def test_empty_open_set_when_paying_wins(self):
        inst = tiny([[5.0]], [0], [[0.0]], [0.0])
        psol = exact_kmp(PenaltyInstance(inst, 1, np.array([0.5])))
        # serving costs 5, paying costs 0.5, but opening is free so the
        # oracle still prefers the lexicographically smallest optimum
        assert psol.total_cost == pytest.approx(0.5)

    def test_size_guard(self):
        inst = tiny([[0.0]], [0], [[float(i)] for i in range(21)], [0.0] * 21)
        with pytest.raises(ValueError, match="guard"):
            exact_kmp(PenaltyInstance(inst, 1, np.zeros(1)))
