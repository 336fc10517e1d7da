from itertools import chain, combinations

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
from fairfl.instance import assign_nearest
from fairfl.kmedian import _drop_farthest
from fairfl.oracle import _cheapest, _check_guard, _subsets
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
        # facility 1 costs +inf: every subset holding it must cost +inf and
        # every subset without it a finite sum, so {2} wins
        inst = tiny([[1.0], [1.0]], [0, 0], [[0.0], [5.0], [1.0]], [10.0, np.inf, 1.0])
        sol = exact_flfo(inst, OutlierBudgets((0,)))
        assert sol.open == frozenset({2})
        assert sol.total_cost == 1.0

    def test_equal_cheapest_costs_open_the_lower_index(self):
        # one client on 16 co-located facilities whose two cheapest opening
        # costs are equal: an opening-cost sum carried from subset to subset
        # across all 2^16 of them drifts past the 1e-12 tie tolerance and
        # opens the higher index (draw 3: {15} instead of {10})
        rng = np.random.default_rng(3)
        for _ in range(4):
            costs = rng.uniform(1, 1000, 16)
            a, b = sorted(rng.choice(16, 2, replace=False))
            costs[a] = costs[b] = costs.min() * 0.5
            inst = tiny([[0.0, 0.0]], [0], np.zeros((16, 2)), costs)
            sol = exact_flfo(inst, OutlierBudgets((0,)))
            assert sol.open == frozenset({int(a)})
            assert sol.total_cost == costs[a]

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


# ---------------------------------------------------------------------------
# exact_flfo and exact_kmfo as they were before one direct enumeration served
# both, kept verbatim as the differential reference: exact_flfo walked the
# subsets in Gray-code order and kept a running opening-cost sum


def _all_droppable(inst: MetricInstance, budgets: OutlierBudgets) -> bool:
    return all(
        cap >= len(members) for cap, members in zip(budgets.per_group, inst.group_members)
    )


def _reference_exact_flfo(inst: MetricInstance, budgets: OutlierBudgets):
    _check_guard(inst)
    budgets.validate_for(inst)
    dist = inst.distances()
    costs = inst.open_costs
    members = inst.group_members

    def gray_walk():
        nearest = np.full(inst.n_clients, np.inf)
        open_rows: list[int] = []
        # finite opening costs are summed; infinite ones only counted, so
        # that closing one never leaves inf - inf in the sum
        f_sum, n_inf = 0.0, 0
        for step in range(1, 1 << inst.n_facilities):
            bit = (step & -step).bit_length() - 1
            sign = -1 if bit in open_rows else 1
            if np.isinf(costs[bit]):
                n_inf += sign
            else:
                f_sum += sign * costs[bit]
            if sign < 0:
                open_rows.remove(bit)
                affected = dist[bit] <= nearest
                if open_rows:
                    nearest[affected] = dist[np.asarray(open_rows)][:, affected].min(axis=0)
                else:
                    nearest[affected] = np.inf
            else:
                open_rows.append(bit)
                nearest = np.minimum(nearest, dist[bit])
            kept, _ = _drop_farthest(members, nearest, budgets.per_group)
            yield (np.inf if n_inf else f_sum + kept), tuple(sorted(open_rows))

    empty = [(0.0, ())] if _all_droppable(inst, budgets) else []
    best_cost, best_subset = _cheapest(chain(empty, gray_walk()))
    if not np.isfinite(best_cost):
        raise OracleError("no facility subset has a finite cost")
    return _reference_rebuild(inst, budgets, best_subset)


def _reference_rebuild(inst: MetricInstance, budgets: OutlierBudgets, subset: tuple[int, ...]):
    if subset:
        nearest = inst.distances()[np.asarray(subset)].min(axis=0)
    else:
        nearest = np.full(inst.n_clients, np.inf)
    _, dropped = _drop_farthest(inst.group_members, nearest, budgets.per_group)
    return assign_nearest(inst, subset, dropped)


def _reference_exact_kmfo(inst: MetricInstance, budgets: OutlierBudgets, k: int):
    _check_guard(inst)
    budgets.validate_for(inst)
    if not 1 <= k <= inst.n_facilities:
        raise ValueError(f"k={k} outside [1, {inst.n_facilities}]")
    dist = inst.distances()
    empty = [(0.0, ())] if _all_droppable(inst, budgets) else []
    scored = (
        (_drop_farthest(inst.group_members, dist[np.asarray(s)].min(axis=0), budgets.per_group)[0], s)
        for s in _subsets(inst.n_facilities, k)
    )
    _, best_subset = _cheapest(chain(empty, scored))
    return _reference_rebuild(inst, budgets, best_subset)


def _outcome(solve, *args):
    try:
        sol = solve(*args)
    except OracleError as exc:
        return ("OracleError", str(exc))
    return sol.open, sol.outliers, sol.total_cost.hex()


def _differential_cases(rng, count):
    """Random instances with up to 10 facilities, some with infinite opening
    costs, and budgets that sometimes let every group drop all its clients."""
    for trial in range(count):
        inst = random_instance(rng, max_n=10, max_m=10)
        if trial % 3 == 0:
            costs = inst.open_costs.copy()
            costs[rng.random(inst.n_facilities) < 0.4] = np.inf
            inst = MetricInstance(inst.client_coords, inst.groups, inst.facility_coords, costs)
        if trial % 5 == 0:
            budgets = OutlierBudgets(tuple(len(g) for g in inst.group_members))
        else:
            budgets = random_budgets(rng, inst)
        yield inst, budgets


class TestMatchesGrayCodeWalk:
    """One direct enumeration against the parent's two loops: the same open
    set, outliers and cost bits wherever the walk's running sum stays within
    the tie tolerance, which it does at these sizes."""

    def test_exact_flfo(self, random_suite):
        rng = np.random.default_rng(5150)
        cases = chain(random_suite, _differential_cases(rng, 300))
        kinds = {"raised": 0, "empty": 0, "inf_cost": 0}
        for inst, budgets in cases:
            got = _outcome(exact_flfo, inst, budgets)
            assert got == _outcome(_reference_exact_flfo, inst, budgets)
            kinds["raised"] += got[0] == "OracleError"
            kinds["empty"] += got[0] == frozenset()
            kinds["inf_cost"] += bool(np.isinf(inst.open_costs).any())
        # the suite reaches the all-droppable empty set, infinite opening
        # costs and the no-finite-subset error
        assert all(kinds.values()), kinds

    def test_exact_kmfo(self, random_suite):
        rng = np.random.default_rng(5151)
        cases = chain(random_suite, _differential_cases(rng, 300))
        empty = 0
        for inst, budgets in cases:
            k = int(rng.integers(1, inst.n_facilities + 1))
            got = _outcome(exact_kmfo, inst, budgets, k)
            assert got == _outcome(_reference_exact_kmfo, inst, budgets, k)
            empty += got[0] == frozenset()
        assert empty
