import math

import numpy as np
import pytest

from fairfl import (
    MetricInstance,
    OutlierBudgets,
    PenaltyInstance,
    build_guess_grid,
    exact_kmfo,
    exact_kmp,
    local_search_penalties,
    ls_nf,
    make_penalties,
    r_ls_f,
    r_ls_nf,
    unfairness,
)
from fairfl.kmedian import _two_nearest
from conftest import random_budgets, random_instance


def tiny(client_pts, groups, fac_pts, costs=None):
    fac_pts = np.array(fac_pts, float)
    if costs is None:
        costs = np.zeros(len(fac_pts))
    return MetricInstance(np.array(client_pts, float), groups, fac_pts, costs)


class TestLocalSearch:
    def test_one_median_of_three_collinear(self):
        inst = tiny([[0.0], [1.0], [2.0]], [0, 0, 0], [[0.0], [1.0], [2.0]])
        pinst = PenaltyInstance(inst, 1, np.full(3, np.inf))
        sol = local_search_penalties(pinst)
        assert sol.open == frozenset({1})
        assert sol.total_cost == pytest.approx(2.0)

    def test_zero_penalty_client_costs_nothing(self):
        inst = tiny([[5.0]], [0], [[0.0], [1.0]])
        sol = local_search_penalties(PenaltyInstance(inst, 1, np.zeros(1)))
        assert sol.total_cost == 0.0
        assert sol.paying == frozenset({0})

    def test_two_clusters_match_oracle(self, rng):
        clients = np.vstack([rng.normal(0, 0.2, (6, 2)), rng.normal(50, 0.2, (6, 2))])
        facilities = np.vstack([rng.normal(0, 0.2, (3, 2)), rng.normal(50, 0.2, (3, 2))])
        inst = MetricInstance(clients, np.zeros(12, int), facilities, np.zeros(6))
        pinst = PenaltyInstance(inst, 2, np.full(12, 1e9))
        sol = local_search_penalties(pinst)
        best = exact_kmp(pinst)
        assert sol.total_cost == pytest.approx(best.total_cost, rel=1e-9)
        assert sol.open == best.open

    def test_search_never_beats_oracle_and_stays_within_factor(self, rng):
        for _ in range(30):
            inst = random_instance(rng, max_n=10, max_m=5, cost_scale=0.0)
            k = int(rng.integers(1, inst.n_facilities + 1))
            pinst = PenaltyInstance(inst, k, np.full(inst.n_clients, np.inf))
            sol = local_search_penalties(pinst)
            best = exact_kmp(pinst)
            assert sol.total_cost >= best.total_cost - 1e-9
            assert sol.total_cost <= 5.0 * best.total_cost + 1e-9

    def test_penalty_equal_to_distance_serves(self):
        # canonical rule: a client pays only when strictly cheaper
        inst = tiny([[3.0]], [0], [[0.0]])
        sol = local_search_penalties(PenaltyInstance(inst, 1, np.array([3.0])))
        assert sol.paying == frozenset()
        assert sol.assignment == {0: 0}

    def test_open_set_size_never_exceeds_k(self, rng):
        for _ in range(10):
            inst = random_instance(rng, max_n=8, max_m=6)
            k = int(rng.integers(1, inst.n_facilities + 1))
            sol = local_search_penalties(
                PenaltyInstance(inst, k, rng.random(inst.n_clients))
            )
            assert len(sol.open) == k

    def test_penalty_accounting_matches_naive(self, rng):
        for _ in range(20):
            inst = random_instance(rng, max_n=10, max_m=5)
            pen = rng.random(inst.n_clients) * 0.5
            pen[rng.random(inst.n_clients) < 0.2] = np.inf
            k = int(rng.integers(1, inst.n_facilities + 1))
            sol = local_search_penalties(PenaltyInstance(inst, k, pen))
            dist = inst.distances()
            nearest = dist[np.asarray(sorted(sol.open))].min(axis=0)
            naive = float(np.minimum(nearest, pen).sum())
            assert sol.total_cost == pytest.approx(naive, rel=1e-12)

    def test_cost_never_increases(self, rng):
        inst = random_instance(rng, max_n=12, max_m=6)
        k = 2 if inst.n_facilities >= 2 else 1
        pen = np.full(inst.n_clients, np.inf)
        start_cost = float(
            np.minimum(_two_nearest(inst.distances(), list(range(k)))[0], pen).sum()
        )
        sol = local_search_penalties(PenaltyInstance(inst, k, pen))
        assert sol.total_cost <= start_cost + 1e-12

    def test_validation(self, rng):
        inst = tiny([[0.0]], [0], [[0.0]])
        with pytest.raises(ValueError):
            PenaltyInstance(inst, 2, np.zeros(1))
        with pytest.raises(ValueError):
            PenaltyInstance(inst, 1, np.array([np.nan]))
        with pytest.raises(ValueError):
            PenaltyInstance(inst, 1, np.array([-1.0]))
        with pytest.raises(ValueError):
            local_search_penalties(PenaltyInstance(inst, 1, np.zeros(1)), improve_frac=0.0)


class TestPenaltyConstruction:
    def test_direct_formula(self):
        inst = tiny([[0.0]] * 4, [0] * 4, [[0.0]])
        pinst = make_penalties(inst, OutlierBudgets((4,)), k=1, guess_cost=100.0, gamma=0.5)
        assert np.allclose(pinst.penalty, 50.0)

    def test_per_group_budgets(self):
        inst = tiny([[0.0]] * 7, [0, 0, 1, 1, 1, 1, 1], [[0.0]])
        pinst = make_penalties(inst, OutlierBudgets((2, 5)), k=1, guess_cost=100.0, gamma=1.0)
        assert np.allclose(pinst.penalty[:2], 50.0)
        assert np.allclose(pinst.penalty[2:], 20.0)

    def test_zero_budget_gets_infinite_penalty(self):
        inst = tiny([[0.0], [1.0]], [0, 1], [[0.0]])
        pinst = make_penalties(inst, OutlierBudgets((0, 1)), k=1, guess_cost=10.0, gamma=0.5)
        assert pinst.penalty[0] == np.inf
        assert pinst.penalty[1] == pytest.approx(20.0)

    def test_gamma_validation(self):
        inst = tiny([[0.0]], [0], [[0.0]])
        with pytest.raises(ValueError):
            make_penalties(inst, OutlierBudgets((1,)), k=1, guess_cost=1.0, gamma=0.0)


class TestGuessGrid:
    def test_geometric_sequence(self):
        # 10 clients minus 2 outliers, distances spanning [1, 4]
        clients = [[float(v)] for v in (1, 1, 1, 1, 1, 1, 1, 2, 3, 4)]
        inst = tiny(clients, [0] * 10, [[0.0]])
        grid = build_guess_grid(inst, OutlierBudgets((2,)), eps_guess=0.5)
        assert grid.lo == pytest.approx(8.0)
        assert grid.hi == pytest.approx(32.0)
        assert np.allclose(grid.values, [8.0, 12.0, 18.0, 27.0, 40.5])

    def test_single_value_when_distances_equal(self):
        inst = tiny([[1.0], [-1.0]], [0, 0], [[0.0]])
        grid = build_guess_grid(inst, OutlierBudgets((1,)), eps_guess=0.5)
        assert grid.values == (1.0,)

    def test_all_but_one_dropped(self):
        clients = [[float(v)] for v in (1, 2, 4)]
        inst = tiny(clients, [0, 0, 0], [[0.0]])
        grid = build_guess_grid(inst, OutlierBudgets((2,)), eps_guess=0.5)
        assert grid.lo == pytest.approx(1.0)
        assert grid.hi == pytest.approx(4.0)

    def test_zero_distances_degenerate(self):
        inst = tiny([[0.0], [0.0]], [0, 0], [[0.0]])
        grid = build_guess_grid(inst, OutlierBudgets((0,)), eps_guess=0.5)
        assert grid.values == (0.0,)

    def test_size_bound_and_bracketing(self, rng):
        for _ in range(50):
            inst = random_instance(rng, max_n=10, max_m=4)
            budgets = random_budgets(rng, inst)
            eps = float(rng.uniform(0.05, 1.0))
            grid = build_guess_grid(inst, budgets, eps)
            assert grid.values[0] == grid.lo
            assert grid.values[-1] >= grid.hi * (1 - 1e-12)
            if grid.hi > grid.lo > 0:
                bound = math.ceil(math.log(grid.hi / grid.lo) / math.log(1 + eps)) + 1
                assert len(grid.values) <= bound + 1  # +1 absorbs float fuzz at the seam
            for a, b in zip(grid.values, grid.values[1:]):
                assert b / a == pytest.approx(1 + eps)


class TestReductionPipeline:
    def test_tight_cluster_generous_budget(self):
        # colocated cluster: nothing pays, cost equals the exact optimum (0)
        inst = tiny([[1.0]] * 6, [0] * 6, [[1.0], [9.0]])
        budgets = OutlierBudgets((3,))
        sol = r_ls_f(inst, budgets, k=1)
        exact = exact_kmfo(inst, budgets, k=1)
        assert sol.connection_cost == pytest.approx(exact.connection_cost)
        assert sum(sol.outlier_counts()) <= 3

    def test_single_group_equals_nonfair_bitwise(self, rng):
        for _ in range(25):
            inst = random_instance(rng, max_n=10, max_m=5, max_groups=1, cost_scale=0.0)
            budgets = random_budgets(rng, inst)
            k = int(rng.integers(1, inst.n_facilities + 1))
            fair = r_ls_f(inst, budgets, k)
            nonfair = r_ls_nf(inst, budgets.total, k)
            assert fair.open == nonfair.open
            assert fair.outliers == nonfair.outliers
            assert fair.connection_cost == nonfair.connection_cost

    def test_selection_rule_contract(self, rng):
        # winner never violates (n_groups + gamma) * cap when any grid
        # candidate satisfies it; here penalties make that always possible
        for _ in range(10):
            inst = random_instance(rng, max_n=10, max_m=4, cost_scale=0.0)
            budgets = random_budgets(rng, inst)
            k = int(rng.integers(1, inst.n_facilities + 1))
            sol = r_ls_f(inst, budgets, k, gamma=0.5)
            slack = inst.n_groups + 0.5
            worst = max(
                (used / (slack * cap)) if cap else (math.inf if used else 0.0)
                for used, cap in zip(sol.outlier_counts(), budgets.per_group)
            )
            # the largest guess gives infinite-ish penalties, so a candidate
            # with zero outliers always qualifies
            assert worst <= 1.0 + 1e-9

    def test_budget_validation(self):
        inst = tiny([[0.0]], [0], [[0.0]])
        with pytest.raises(ValueError):
            r_ls_nf(inst, 2, k=1)
        with pytest.raises(ValueError):
            ls_nf(inst, -1, k=1)


class TestPlainLocalSearchBaseline:
    def test_zero_budget_is_plain_k_median(self, rng):
        inst = random_instance(rng, max_n=10, max_m=4, cost_scale=0.0)
        k = min(2, inst.n_facilities)
        sol = ls_nf(inst, 0, k)
        pinst = PenaltyInstance(inst, k, np.full(inst.n_clients, np.inf))
        plain = local_search_penalties(pinst)
        assert sol.open == plain.open
        assert sum(sol.outlier_counts()) == 0
        assert sol.connection_cost == pytest.approx(plain.total_cost)

    def test_colocated_tie_break_by_index(self):
        inst = tiny([[3.0]] * 4, [0] * 4, [[0.0]])
        sol = ls_nf(inst, 2, k=1)
        assert sol.outliers[0] == frozenset({0, 1})

    def test_minority_cluster_dropped_entirely(self):
        majority = [[float(v) / 100.0] for v in range(30)]
        minority = [[10.0 + float(v) / 100.0] for v in range(10)]
        groups = [0] * 30 + [1] * 10
        inst = tiny(majority + minority, groups, [[0.0], [10.0]])
        budgets = OutlierBudgets((int(round(0.25 * 30)), int(round(0.25 * 10))))
        sol = ls_nf(inst, 10, k=1)
        assert sol.outliers[1] == frozenset(range(30, 40))
        assert unfairness(budgets, sol) >= 10 / budgets.per_group[1]

    def test_reported_cost_excludes_dropped(self, rng):
        inst = random_instance(rng, max_n=10, max_m=4, cost_scale=0.0)
        full = ls_nf(inst, 0, k=1)
        dropped = ls_nf(inst, 2, k=1)
        assert dropped.connection_cost <= full.connection_cost + 1e-12
