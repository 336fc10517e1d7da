import gc
import math
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from fairfl import (
    MetricInstance,
    OutlierBudgets,
    PenaltyInstance,
    SyntheticConfig,
    exact_kmfo,
    exact_kmp,
    generate_synthetic,
    local_search_penalties,
    ls_nf,
    r_ls_f,
    r_ls_nf,
    unfairness,
)
from fairfl import instance as instance_mod
from fairfl import kmedian
from fairfl.cli import budgets_from_pct
from fairfl.kmedian import (
    LocalSearchError,
    PenaltySolution,
    _grid_from_totals,
    _penalties_for,
    _two_nearest,
)
from conftest import outliers, random_budgets, random_instance


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
        assert np.flatnonzero(sol.paying).tolist() == [0]

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
        assert not sol.paying.any()
        assert sol.service_cost == 3.0 and sol.penalty_paid == 0.0

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
    # p_j = guess / (gamma * budget of j's group), as the reduction builds it
    def test_direct_formula(self):
        penalty = _penalties_for(np.zeros(4, dtype=np.int64), (4,), 100.0, 0.5)
        assert np.allclose(penalty, 50.0)

    def test_per_group_budgets(self):
        penalty = _penalties_for(np.array([0, 0, 1, 1, 1, 1, 1]), (2, 5), 100.0, 1.0)
        assert np.allclose(penalty[:2], 50.0)
        assert np.allclose(penalty[2:], 20.0)

    def test_zero_budget_gets_infinite_penalty(self):
        penalty = _penalties_for(np.array([0, 1]), (0, 1), 10.0, 0.5)
        assert penalty[0] == np.inf
        assert penalty[1] == pytest.approx(20.0)

    def test_gamma_validation(self):
        # checked where the penalties are computed, so the solvers reject it too
        inst = tiny([[0.0], [1.0], [2.0]], [0, 0, 1], [[0.0], [2.0]])
        for gamma in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma must be positive"):
                _penalties_for(inst.groups, (1, 1), 1.0, gamma)
            with pytest.raises(ValueError, match="gamma must be positive"):
                r_ls_f(inst, OutlierBudgets((1, 1)), k=1, gamma=gamma)
            with pytest.raises(ValueError, match="gamma must be positive"):
                r_ls_nf(inst, 2, k=1, gamma=gamma)


def grid_range(inst: MetricInstance, total_budget: int) -> tuple[float, float]:
    """The service-cost range the guess grid must cover: every served client
    pays between the smallest positive and the largest distance (0, 0 when
    nobody is served or no distance is positive)."""
    served = inst.n_clients - total_budget
    dist = inst.distances()
    positive = dist[dist > 0]
    if served == 0 or positive.size == 0:
        return 0.0, 0.0
    return served * float(positive.min()), served * float(dist.max())


class TestGuessGrid:
    def test_geometric_sequence(self):
        # 10 clients minus 2 outliers, distances spanning [1, 4]: [8, 32]
        clients = [[float(v)] for v in (1, 1, 1, 1, 1, 1, 1, 2, 3, 4)]
        inst = tiny(clients, [0] * 10, [[0.0]])
        grid = _grid_from_totals(inst, 2, eps_guess=0.5)
        assert np.allclose(grid, [8.0, 12.0, 18.0, 27.0, 40.5])

    def test_single_value_when_distances_equal(self):
        inst = tiny([[1.0], [-1.0]], [0, 0], [[0.0]])
        assert _grid_from_totals(inst, 1, eps_guess=0.5) == (1.0,)

    def test_all_but_one_dropped(self):
        # one served client, distances spanning [1, 4]
        clients = [[float(v)] for v in (1, 2, 4)]
        inst = tiny(clients, [0, 0, 0], [[0.0]])
        grid = _grid_from_totals(inst, 2, eps_guess=0.5)
        assert grid[0] == pytest.approx(1.0)
        assert grid[-2] < 4.0 <= grid[-1]

    def test_zero_distances_degenerate(self):
        inst = tiny([[0.0], [0.0]], [0, 0], [[0.0]])
        assert _grid_from_totals(inst, 0, eps_guess=0.5) == (0.0,)

    def test_size_bound_and_bracketing(self, rng):
        for _ in range(50):
            inst = random_instance(rng, max_n=10, max_m=4)
            budgets = random_budgets(rng, inst)
            eps = float(rng.uniform(0.05, 1.0))
            grid = _grid_from_totals(inst, budgets.total, eps)
            lo, hi = grid_range(inst, budgets.total)
            assert grid[0] == lo
            assert grid[-1] >= hi * (1 - 1e-12)
            if hi > lo > 0:
                bound = math.ceil(math.log(hi / lo) / math.log(1 + eps)) + 1
                assert len(grid) <= bound + 1  # +1 absorbs float fuzz at the seam
            for a, b in zip(grid, grid[1:]):
                assert b / a == pytest.approx(1 + eps)


def _reference_grid_from_totals(inst: MetricInstance, total_budget: int, eps_guess: float) -> tuple[float, ...]:
    """The guess grid as it was computed from a copy of the positive
    distances, kept verbatim (but for the eps_guess check) as the reference."""
    n = inst.n_clients
    served = n - total_budget
    dist = inst.distances()
    positive = dist[dist > 0]
    if served == 0 or positive.size == 0:
        return (0.0,)
    lo = served * float(positive.min())
    hi = served * float(dist.max())
    values = [lo]
    v = lo
    while v < hi * (1.0 - 1e-12):
        v *= 1.0 + eps_guess
        values.append(v)
    return tuple(values)


class TestGuessGridMatchesReference:
    def test_zero_and_positive_distances(self, rng):
        # integer coordinates put clients on facilities: zero distances
        # beside positive ones, and some instances with none positive
        for trial in range(200):
            n, m = int(rng.integers(1, 15)), int(rng.integers(1, 6))
            span = int(rng.choice([1, 2, 4])) if trial % 2 else 100
            clients = rng.integers(0, span, (n, 2)).astype(float) / span
            facilities = rng.integers(0, span, (m, 2)).astype(float) / span
            inst = MetricInstance(clients, np.zeros(n, dtype=np.int64), facilities, np.zeros(m))
            total = int(rng.integers(0, n + 1))
            eps = float(rng.choice([0.05, 0.5, 2.0]))
            got = _grid_from_totals(inst, total, eps)
            assert [v.hex() for v in got] == [v.hex() for v in _reference_grid_from_totals(inst, total, eps)]


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
            assert np.array_equal(fair.dropped, nonfair.dropped)
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

    def test_eps_guess_validation(self):
        # an infinite ratio made the grid (lo, inf)
        inst = tiny([[0.0], [1.0], [2.0]], [0, 0, 1], [[0.0], [2.0]])
        for eps in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="eps_guess must be positive and finite"):
                _grid_from_totals(inst, 2, eps)
            with pytest.raises(ValueError, match="eps_guess must be positive and finite"):
                r_ls_f(inst, OutlierBudgets((1, 1)), k=1, eps_guess=eps)
            with pytest.raises(ValueError, match="eps_guess must be positive and finite"):
                r_ls_nf(inst, 2, k=1, eps_guess=eps)

    def test_budget_validation(self):
        inst = tiny([[0.0]], [0], [[0.0]])
        with pytest.raises(ValueError):
            r_ls_nf(inst, 2, k=1)
        with pytest.raises(ValueError):
            ls_nf(inst, -1, k=1)


class TestAdmissibleGuess:
    """The reduction keeps only admissible candidates; its grid's last guess
    always is one."""

    @pytest.mark.parametrize("gamma", [0.1, 1 / 3, 0.5, 1.0])
    def test_last_guess_is_admissible_on_the_random_suite(self, random_suite, monkeypatch, gamma):
        grid = kmedian._grid_from_totals
        monkeypatch.setattr(kmedian, "_grid_from_totals", lambda inst, total, eps: grid(inst, total, eps)[-1:])
        for inst, budgets in random_suite:
            merged = np.zeros(inst.n_clients, dtype=np.int64)
            for groups, caps in ((inst.groups, budgets.per_group), (merged, (budgets.total,))):
                for k in {1, 1 + inst.n_clients % inst.n_facilities}:
                    psol = kmedian._reduce_and_search(inst, groups, caps, k, gamma, 0.5, 0.01)
                    counts = np.bincount(groups[psol.paying], minlength=len(caps))
                    for used, cap in zip(counts.tolist(), caps):
                        assert used <= (len(caps) + gamma) * cap

    def test_no_admissible_guess_raises(self, monkeypatch):
        # one binding guess: each penalty, 1e-3 / (0.5 * 1), is below every
        # distance, so all four clients pay, beyond (1 + 0.5) * 1
        inst = tiny([[1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 0], [[0.0]])
        monkeypatch.setattr(kmedian, "_grid_from_totals", lambda inst, total, eps: (1e-3,))
        with pytest.raises(LocalSearchError, match="no guess of the 1-value grid"):
            r_ls_f(inst, OutlierBudgets((1,)), 1)
        with pytest.raises(LocalSearchError, match="no guess of the 1-value grid"):
            r_ls_nf(inst, 1, 1)

    def test_raise_survives_optimize_flag(self):
        code = (
            "import numpy as np\n"
            "from fairfl import LocalSearchError, MetricInstance, OutlierBudgets, r_ls_f\n"
            "from fairfl import kmedian\n"
            "kmedian._grid_from_totals = lambda inst, total, eps: (1e-3,)\n"
            "inst = MetricInstance(np.array([[1.0], [2.0], [3.0], [4.0]]), [0] * 4, np.array([[0.0]]), [0.0])\n"
            "try:\n"
            "    r_ls_f(inst, OutlierBudgets((1,)), 1)\n"
            "except LocalSearchError:\n"
            "    print('raised')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert out.stdout.strip() == "raised", out.stderr


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
        assert outliers(sol)[0] == frozenset({0, 1})

    def test_minority_cluster_dropped_entirely(self):
        majority = [[float(v) / 100.0] for v in range(30)]
        minority = [[10.0 + float(v) / 100.0] for v in range(10)]
        groups = [0] * 30 + [1] * 10
        inst = tiny(majority + minority, groups, [[0.0], [10.0]])
        budgets = OutlierBudgets((int(round(0.25 * 30)), int(round(0.25 * 10))))
        sol = ls_nf(inst, 10, k=1)
        assert outliers(sol)[1] == frozenset(range(30, 40))
        assert unfairness(budgets, sol) >= 10 / budgets.per_group[1]

    def test_reported_cost_excludes_dropped(self, rng):
        inst = random_instance(rng, max_n=10, max_m=4, cost_scale=0.0)
        full = ls_nf(inst, 0, k=1)
        dropped = ls_nf(inst, 2, k=1)
        assert dropped.connection_cost <= full.connection_cost + 1e-12


class TestNeverBeatsOracles:
    """The local searches are lower-bounded by the exhaustive optima on
    instances with up to six facilities.  Only the bound is asserted; the
    5x factor is asserted only with every penalty infinite
    (``TestLocalSearch`` and acceptance criterion 9)."""

    @staticmethod
    def _instance(data, st, n_groups):
        n = data.draw(st.integers(n_groups, 10))
        m = data.draw(st.integers(1, 6))
        coord = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 4.0))
        clients = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        facilities = data.draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
        groups = np.arange(n) % n_groups
        costs = data.draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m))
        return MetricInstance(np.array(clients), groups, np.array(facilities), costs)

    def test_penalty_search_costs_at_least_exact_kmp(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            inst = self._instance(data, st, data.draw(st.integers(1, 3)))
            n = inst.n_clients
            pen = data.draw(st.lists(
                st.one_of(st.just(np.inf), st.just(0.0), st.floats(0.0, 6.0)),
                min_size=n, max_size=n))
            k = data.draw(st.integers(1, inst.n_facilities))
            improve_frac = data.draw(st.sampled_from([1e-3, 0.01, 0.1, 0.5]))
            pinst = PenaltyInstance(inst, k, np.array(pen))
            sol = local_search_penalties(pinst, improve_frac)
            assert sol.total_cost >= exact_kmp(pinst).total_cost - 1e-9

        check()

    def test_ls_nf_costs_at_least_exact_kmfo_on_one_group(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            inst = self._instance(data, st, 1)
            total = data.draw(st.integers(0, inst.n_clients))
            k = data.draw(st.integers(1, inst.n_facilities))
            sol = ls_nf(inst, total, k)
            best = exact_kmfo(inst, OutlierBudgets((total,)), k)
            assert sol.connection_cost >= best.connection_cost - 1e-9

        check()


# ---------------------------------------------------------------------------
# The swap scan as it was before the blocked, penalty-clipped kernel (full
# candidate matrices per outgoing facility, a stable argsort for the two
# nearest), kept verbatim as the reference the kernel must reproduce bit for
# bit.


def _reference_two_nearest(dist: np.ndarray, open_list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest and second-nearest open distances per client.

    Ties resolve toward the lowest facility index.  Second distance is +inf
    when only one facility is open.
    """
    rows = np.asarray(sorted(open_list), dtype=np.int64)
    sub = dist[rows]
    n = dist.shape[1]
    if len(rows) == 1:
        return sub[0].copy(), np.full(n, rows[0]), np.full(n, np.inf)
    order = np.argsort(sub, axis=0, kind="stable")
    cols = np.arange(n)
    d1 = sub[order[0], cols]
    d2 = sub[order[1], cols]
    return d1, rows[order[0]], d2


def _reference_canonical_solution(pinst: PenaltyInstance, open_list) -> PenaltySolution:
    dist = pinst.base.distances()
    d1, a1, _ = _reference_two_nearest(dist, open_list)
    pays = pinst.penalty < d1  # ties serve
    service = float(d1[~pays].sum())
    paid = float(pinst.penalty[pays].sum())
    return PenaltySolution(frozenset(int(i) for i in open_list), pays, service, paid)


def _reference_local_search_penalties(pinst: PenaltyInstance, improve_frac: float = 0.01) -> PenaltySolution:
    """Single-swap local search on the serve-or-pay objective.

    Starts from the k lowest-index facilities and scans swaps in
    lexicographic (outgoing, incoming) order, accepting the first swap that
    cuts the current cost by at least ``improve_frac`` of itself; stops when
    a full scan finds none.
    """
    if not (0 < improve_frac < 1):
        raise ValueError("improve_frac must be in (0, 1)")
    dist = pinst.base.distances()
    m = pinst.base.n_facilities
    pen = pinst.penalty
    open_list = list(range(pinst.k))
    d1, a1, d2 = _reference_two_nearest(dist, open_list)
    cost = float(np.minimum(d1, pen).sum())
    start_cost = cost
    accepted = 0

    improved = True
    while improved:
        improved = False
        open_sorted = sorted(open_list)
        closed = np.array([i for i in range(m) if i not in set(open_list)], dtype=np.int64)
        if closed.size == 0:
            break
        for f_out in open_sorted:
            base_d = np.where(a1 == f_out, d2, d1)
            cand = np.minimum(base_d[None, :], dist[closed])
            cand_cost = np.minimum(cand, pen[None, :]).sum(axis=1)
            hits = np.flatnonzero((cand_cost <= cost * (1.0 - improve_frac)) & (cand_cost < cost))
            if hits.size:
                f_in = int(closed[hits[0]])
                open_list = sorted(set(open_list) - {f_out} | {f_in})
                d1, a1, d2 = _reference_two_nearest(dist, open_list)
                cost = float(np.minimum(d1, pen).sum())
                accepted += 1
                improved = True
                break

    if accepted and cost > 0:
        # each accepted swap shrinks cost by factor <= (1 - improve_frac)
        bound = math.log(start_cost / cost) / math.log(1.0 / (1.0 - improve_frac))
        if accepted > bound + 1e-6:
            raise LocalSearchError(f"{accepted} swaps exceeds decay bound {bound:.3f}")
    return _reference_canonical_solution(pinst, open_list)


def _solution_bytes(sol: PenaltySolution) -> tuple:
    """A search result as bytes: open and paying sets and the bits of the
    service and penalty totals."""
    return (
        np.array(sorted(sol.open), dtype=np.int64).tobytes(),
        np.flatnonzero(sol.paying).tobytes(),
        float(sol.service_cost).hex(),
        float(sol.penalty_paid).hex(),
    )


def assert_same_search(pinst: PenaltyInstance, improve_frac: float) -> PenaltySolution:
    """The kernel and the reference return the same bytes (or raise alike)."""
    try:
        want = _reference_local_search_penalties(pinst, improve_frac)
    except LocalSearchError as err:
        with pytest.raises(LocalSearchError) as raised:
            local_search_penalties(pinst, improve_frac)
        assert str(raised.value) == str(err)
        return None
    got = local_search_penalties(pinst, improve_frac)
    assert _solution_bytes(got) == _solution_bytes(want)
    return got


def _block_rows(monkeypatch, inst: MetricInstance, rows: Optional[int]) -> None:
    """Scan ``rows`` facilities per block (None: the default block size)."""
    if rows is not None:
        monkeypatch.setattr(instance_mod, "_BLOCK_BYTES", rows * 8 * inst.n_clients)


def _penalty_case(rng, grid: bool) -> tuple[PenaltyInstance, float]:
    """A random penalty instance with a mix of finite, zero, infinite and
    distance-equal penalties, and a random improve_frac in [1e-3, 0.5]."""
    n, m = int(rng.integers(1, 40)), int(rng.integers(1, 13))
    dim = int(rng.integers(1, 4))
    if grid:  # integer coordinates: many tied distances and tied swap costs
        clients = rng.integers(0, 4, (n, dim)).astype(float)
        facilities = rng.integers(0, 4, (m, dim)).astype(float)
    else:
        clients, facilities = rng.random((n, dim)), rng.random((m, dim))
    inst = MetricInstance(clients, np.zeros(n, dtype=np.int64), facilities, np.zeros(m))
    dist = inst.distances()
    kind = rng.random(n)
    pen = rng.random(n) * float(rng.choice([0.1, 1.0, 10.0])) * max(float(dist.max()), 1.0)
    pen[kind < 0.25] = np.inf
    pen[(kind >= 0.25) & (kind < 0.35)] = 0.0
    ties = (kind >= 0.35) & (kind < 0.5)  # penalty equal to some facility's distance
    pen[ties] = dist[rng.integers(0, m, int(ties.sum())), np.flatnonzero(ties)]
    k = int(rng.choice([1, m, int(rng.integers(1, m + 1))]))
    if grid and rng.random() < 0.5:  # a swap may cut the cost by exactly this much
        improve_frac = float(rng.choice([0.125, 0.25, 0.5]))
    else:
        improve_frac = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.5))))
    return PenaltyInstance(inst, k, pen), improve_frac


class TestTwoNearestMatchesReference:
    def test_random_and_tied_rows(self, rng):
        for trial in range(300):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 30))
            if trial % 2:
                dist = rng.integers(0, 3, (m, n)).astype(float)
            else:
                dist = rng.random((m, n))
            if trial % 3 == 0:  # infinite distances, whole columns of them included
                dist[rng.random((m, n)) < 0.3] = np.inf
                dist[:, rng.random(n) < 0.2] = np.inf
            k = int(rng.integers(1, m + 1))
            open_list = rng.permutation(m)[:k].tolist()
            got = _two_nearest(dist, open_list)
            want = _reference_two_nearest(dist, open_list)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_large_draw(self, rng):
        # the lpfree-csv shape: k = 5 of 100 open rows over 4500 clients
        dist = rng.random((100, 4500))
        dist[:, ::7] = dist[40, ::7]  # rows tied with an open row on some columns
        for open_list in ([3, 17, 40, 41, 90], [41, 40], [99], [40], list(range(100))):
            got = _two_nearest(dist, open_list)
            want = _reference_two_nearest(dist, open_list)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestSwapScanMatchesReference:
    """The blocked, penalty-clipped swap scan against the full-matrix one."""

    @pytest.mark.parametrize("rows", [1, 2, 5, None])
    def test_random_cases(self, rng, monkeypatch, rows):
        for trial in range(120):
            pinst, improve_frac = _penalty_case(rng, grid=trial % 2 == 0)
            _block_rows(monkeypatch, pinst.base, rows)
            assert_same_search(pinst, improve_frac)

    @pytest.mark.parametrize("improve_frac", [1e-3, 0.01, 0.1, 0.5])
    def test_reduction_penalties_on_synthetic_draw(self, monkeypatch, improve_frac):
        # the penalties R+LS-F builds on the default 550x100 instance
        inst, _ = generate_synthetic(SyntheticConfig(seed=0))
        budgets = budgets_from_pct(inst, 5.0)
        grid = _grid_from_totals(inst, budgets.total, 0.5)
        for rows in (1, None):
            _block_rows(monkeypatch, inst, rows)
            for guess in grid[::4]:
                penalty = _penalties_for(inst.groups, budgets.per_group, guess, 0.5)
                assert_same_search(PenaltyInstance(inst, 5, penalty), improve_frac)

    def test_hypothesis_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 12))
            m = data.draw(st.integers(1, 7))
            coord = st.integers(0, 3)
            clients = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
            facilities = data.draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
            inst = MetricInstance(np.array(clients, float), np.zeros(n, dtype=np.int64),
                                  np.array(facilities, float), np.zeros(m))
            pen = data.draw(st.lists(
                st.one_of(st.just(np.inf), st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0]),
                          st.floats(0.0, 6.0)),
                min_size=n, max_size=n))
            k = data.draw(st.integers(1, m))
            improve_frac = data.draw(st.one_of(st.sampled_from([0.125, 0.25, 0.5]),
                                               st.floats(1e-3, 0.5)))
            rows = data.draw(st.integers(1, m))
            old = instance_mod._BLOCK_BYTES
            instance_mod._BLOCK_BYTES = rows * 8 * n
            try:
                assert_same_search(PenaltyInstance(inst, k, np.array(pen)), improve_frac)
            finally:
                instance_mod._BLOCK_BYTES = old

        check()

    def test_reduction_matches_reference_search(self, random_suite, monkeypatch):
        # R+LS-F/NF and LS-NF end to end, with the reference search swapped in
        for inst, budgets in random_suite[:60]:
            k = 1 + inst.n_clients % inst.n_facilities
            got = (r_ls_f(inst, budgets, k), r_ls_nf(inst, budgets.total, k),
                   ls_nf(inst, budgets.total, k))
            copy = pickle.loads(pickle.dumps(inst))  # its penalty-free search is not cached yet
            with monkeypatch.context() as patch:
                patch.setattr(kmedian, "local_search_penalties", _reference_local_search_penalties)
                patch.setattr(kmedian, "_two_nearest", _reference_two_nearest)
                want = (r_ls_f(copy, budgets, k), r_ls_nf(copy, budgets.total, k),
                        ls_nf(copy, budgets.total, k))
            for a, b in zip(got, want):
                assert a.open == b.open and np.array_equal(a.dropped, b.dropped)
                assert a.assignment == b.assignment
                assert a.connection_cost.hex() == b.connection_cost.hex()


# ---------------------------------------------------------------------------
# The reduction as it was before the guesses whose penalties never bind
# shared one search (one search per guess-grid value), kept verbatim as the
# reference the shared search must reproduce bit for bit.


def _reference_reduce_and_search(
    inst: MetricInstance,
    groups: np.ndarray,
    caps,
    k: int,
    gamma: float,
    eps_guess: float,
    improve_frac: float,
) -> PenaltySolution:
    """Run the guess grid and pick a winner.

    A candidate is admissible when every group's outlier count stays within
    (n_groups + gamma) times its cap; the cheapest admissible candidate by
    service cost wins, falling back to the smallest violation ratio (then
    cost) when none is admissible.  Ties resolve to the earliest grid value.
    """
    n_groups = len(caps)
    grid = _grid_from_totals(inst, int(sum(caps)), eps_guess)
    slack = n_groups + gamma

    def candidates():
        for t, guess in enumerate(grid):
            pinst = PenaltyInstance(inst, k, _penalties_for(groups, caps, guess, gamma))
            psol = local_search_penalties(pinst, improve_frac)
            counts = np.bincount(groups[psol.paying], minlength=n_groups)
            viol = 0.0
            for g in range(n_groups):
                if counts[g] == 0:
                    continue
                viol = max(viol, counts[g] / (slack * caps[g]))
            if viol <= 1.0:
                yield (0, psol.service_cost, viol, t, psol)
            else:
                yield (1, viol, psol.service_cost, t, psol)

    # the grid is never empty, and t makes every key distinct
    return min(candidates(), key=lambda c: c[:4])[4]


def assert_same_reduction(monkeypatch, inst: MetricInstance, budgets: OutlierBudgets, k: int,
                          **params) -> None:
    """R+LS-F and R+LS-NF return the reference reduction's solutions: open
    and outlier sets, assignment and connection-cost bits."""
    got = (r_ls_f(inst, budgets, k, **params), r_ls_nf(inst, budgets.total, k, **params))
    with monkeypatch.context() as patch:
        patch.setattr(kmedian, "_reduce_and_search", _reference_reduce_and_search)
        want = (r_ls_f(inst, budgets, k, **params), r_ls_nf(inst, budgets.total, k, **params))
    for a, b in zip(got, want):
        assert a.open == b.open and np.array_equal(a.dropped, b.dropped)
        assert a.assignment == b.assignment
        assert a.connection_cost.hex() == b.connection_cost.hex()


def penalty_kinds(inst: MetricInstance, groups, caps, gamma: float = 0.5, eps_guess: float = 0.5) -> list[bool]:
    """Per guess-grid value: True when its penalties never bind."""
    farthest = inst.distances().max(axis=0)
    return [bool(np.all(_penalties_for(groups, caps, guess, gamma) >= farthest))
            for guess in _grid_from_totals(inst, sum(caps), eps_guess)]


class TestSharedSearchMatchesReference:
    """R+LS with one search shared by the penalty-free guesses against one
    search per guess."""

    def test_random_suite(self, random_suite, monkeypatch):
        mixed = 0
        for inst, budgets in random_suite:
            for k in {1, 1 + inst.n_clients % inst.n_facilities}:
                assert_same_reduction(monkeypatch, inst, budgets, k)
            free = penalty_kinds(inst, inst.groups, budgets.per_group)
            mixed += 0 < free.count(True) < len(free) and free.count(True) > 1
        assert mixed > 50

    def test_gamma_eps_and_improve_frac(self, rng, monkeypatch):
        for _ in range(40):
            inst = random_instance(rng, max_n=12, max_m=6)
            budgets = random_budgets(rng, inst)
            k = int(rng.integers(1, inst.n_facilities + 1))
            params = dict(gamma=float(rng.choice([0.1, 0.5, 2.0])),
                          eps_guess=float(rng.choice([0.05, 0.5, 3.0])),
                          improve_frac=float(rng.choice([1e-3, 0.01, 0.3])))
            assert_same_reduction(monkeypatch, inst, budgets, k, **params)

    def test_zero_caps_give_infinite_penalties(self, rng, monkeypatch):
        for _ in range(30):
            inst = random_instance(rng, max_n=12, max_m=6)
            budgets = random_budgets(rng, inst)
            zeroed = OutlierBudgets(tuple(c if g % 2 else 0 for g, c in enumerate(budgets.per_group)))
            for caps in (zeroed, OutlierBudgets((0,) * inst.n_groups)):
                for k in (1, inst.n_facilities):
                    assert_same_reduction(monkeypatch, inst, caps, k)

    def test_all_zero_distances(self, monkeypatch):
        # the grid is (0.0,): zero penalties, and every distance is zero
        inst = tiny([[1.0]] * 5, [0, 0, 1, 1, 1], [[1.0], [1.0], [1.0]])
        for budgets in (OutlierBudgets((1, 2)), OutlierBudgets((0, 0)), OutlierBudgets((2, 3))):
            assert _grid_from_totals(inst, budgets.total, 0.5) == (0.0,)
            assert penalty_kinds(inst, inst.groups, budgets.per_group) == [True]
            for k in (1, 2, 3):
                assert_same_reduction(monkeypatch, inst, budgets, k)

    def test_penalty_equal_to_farthest_distance(self, monkeypatch):
        # clients at 1 and 2 from one facility, one outlier: the grid is
        # (1, 1.5, 2.25); gamma 0.5 makes the first penalty 2, equal to the
        # farther client's distance, and gamma 1 makes two guesses bind
        inst = tiny([[1.0], [2.0]], [0, 0], [[0.0]])
        budgets = OutlierBudgets((1,))
        assert _penalties_for(inst.groups, (1,), 1.0, 0.5)[1] == inst.distances().max()
        assert penalty_kinds(inst, inst.groups, (1,), gamma=0.5) == [True, True, True]
        assert penalty_kinds(inst, inst.groups, (1,), gamma=1.0) == [False, False, True]
        for gamma in (0.5, 1.0):
            assert_same_reduction(monkeypatch, inst, budgets, 1, gamma=gamma)
        # the same on a wider draw: several facilities, k = 1 and k = 2
        inst = tiny([[0.0], [1.0], [2.0], [4.0]], [0, 0, 1, 1], [[0.0], [2.0], [4.0]])
        budgets = OutlierBudgets((1, 1))
        equal = 0
        for guess in _grid_from_totals(inst, 2, 0.5):
            for j, far in enumerate(inst.distances().max(axis=0)):
                gamma = guess / far  # the penalty guess / (gamma * 1) is far
                if _penalties_for(inst.groups, (1, 1), guess, gamma)[j] == far:
                    equal += 1
                    for k in (1, 2):
                        assert_same_reduction(monkeypatch, inst, budgets, k, gamma=gamma)
        assert equal == 20

    @pytest.mark.parametrize("pct", [2.0, 10.0])
    def test_synthetic_draw(self, monkeypatch, pct):
        inst, _ = generate_synthetic(SyntheticConfig(seed=0))
        budgets = budgets_from_pct(inst, pct)
        free = penalty_kinds(inst, inst.groups, budgets.per_group)
        assert 1 < free.count(True) < len(free)
        assert_same_reduction(monkeypatch, inst, budgets, 5)


class TestGridStopsAtThePenaltyFreeGuess:
    """Penalties grow with the guess, so the grid stops at its first
    penalty-free guess: every later one would yield the same candidate at a
    later grid value."""

    def _built_guesses(self, monkeypatch, inst, groups, caps, k):
        built, original = [], kmedian._penalties_for
        with monkeypatch.context() as patch:
            patch.setattr(kmedian, "_penalties_for", lambda *a: built.append(a[2]) or original(*a))
            kmedian._reduce_and_search(inst, groups, caps, k, 0.5, 0.5, 0.01)
        return built

    def test_random_suite(self, random_suite, monkeypatch):
        several = 0
        for inst, budgets in random_suite[:80]:
            k = 1 + inst.n_clients % inst.n_facilities
            merged = np.zeros(inst.n_clients, dtype=np.int64)
            for groups, caps in ((inst.groups, budgets.per_group), (merged, (budgets.total,))):
                grid = _grid_from_totals(inst, sum(caps), 0.5)
                free = penalty_kinds(inst, groups, caps)
                stop = free.index(True) + 1 if True in free else len(grid)
                assert self._built_guesses(monkeypatch, inst, groups, caps, k) == list(grid[:stop])
                several += free.count(True) > 1
        assert several > 20

    @pytest.mark.parametrize("pct", [2.0, 10.0])
    def test_synthetic_draw(self, monkeypatch, pct):
        inst, _ = generate_synthetic(SyntheticConfig(seed=0))
        budgets = budgets_from_pct(inst, pct)
        free = penalty_kinds(inst, inst.groups, budgets.per_group)
        built = self._built_guesses(monkeypatch, inst, inst.groups, budgets.per_group, 5)
        assert free.count(True) > 1 and len(built) == free.index(True) + 1 < len(free)


class TestPenaltyFreeSearch:
    def test_penalties_reaching_farthest_distance_never_bind(self):
        # the lemma the shared search rests on: penalties at or above each
        # client's farthest distance give the all-inf search's solution
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 12))
            m = data.draw(st.integers(1, 7))
            coord = st.integers(0, 3)
            clients = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
            facilities = data.draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
            inst = MetricInstance(np.array(clients, float), np.zeros(n, dtype=np.int64),
                                  np.array(facilities, float), np.zeros(m))
            excess = data.draw(st.lists(
                st.one_of(st.just(0.0), st.just(np.inf), st.floats(0.0, 6.0)),
                min_size=n, max_size=n))
            penalty = inst.distances().max(axis=0) + np.array(excess)
            k = data.draw(st.one_of(st.just(1), st.integers(1, m)))
            improve_frac = data.draw(st.one_of(st.sampled_from([0.125, 0.25, 0.5]),
                                               st.floats(1e-3, 0.5)))
            got = local_search_penalties(PenaltyInstance(inst, k, penalty), improve_frac)
            want = local_search_penalties(PenaltyInstance(inst, k, np.full(n, np.inf)), improve_frac)
            assert _solution_bytes(got) == _solution_bytes(want)
            assert not got.paying.any() and got.penalty_paid == 0.0

        check()


class TestSearchContract:
    def test_searches_run_once_per_binding_grid_value(self, rng, monkeypatch):
        # per instance object, k and improve_frac, R+LS-F, R+LS-NF and LS-NF
        # run one penalty-free search between them, all-inf and at the first
        # guess whose penalties all reach each client's farthest facility,
        # and one search per guess with a binding penalty; a wrapper on the
        # module's local_search_penalties sees every search they run
        calls = []
        original = kmedian.local_search_penalties

        def counting(pinst, improve_frac):
            calls.append(pinst.penalty)
            return original(pinst, improve_frac)

        monkeypatch.setattr(kmedian, "local_search_penalties", counting)
        shared = mixed = 0
        for _ in range(20):
            inst = random_instance(rng, max_n=10, max_m=5)
            budgets = random_budgets(rng, inst)
            k = int(rng.integers(1, inst.n_facilities + 1))
            merged = np.zeros(inst.n_clients, dtype=np.int64)
            free_search = np.full(inst.n_clients, np.inf)
            searched_free = False
            for _ in range(2):  # a repeat runs only the binding guesses' searches
                calls.clear()
                want = []
                for groups, caps in ((inst.groups, budgets.per_group), (merged, (budgets.total,))):
                    penalties = [_penalties_for(groups, caps, guess, 0.5)
                                 for guess in _grid_from_totals(inst, sum(caps), 0.5)]
                    free = [bool(np.all(p >= inst.distances().max(axis=0))) for p in penalties]
                    for t, p in enumerate(penalties):
                        if not free[t]:
                            want.append(p)
                        elif not searched_free:
                            want.append(free_search)
                            searched_free = True
                    shared += free.count(True) > 1
                    mixed += 0 < free.count(True) < len(free)
                if not searched_free:
                    want.append(free_search)  # LS-NF's
                    searched_free = True
                r_ls_f(inst, budgets, k)
                r_ls_nf(inst, budgets.total, k)
                ls_nf(inst, budgets.total, k)
                assert [p.tobytes() for p in calls] == [p.tobytes() for p in want]
        assert shared and mixed  # the draws exercise both kinds of guess

    def test_penalty_equal_to_farthest_is_penalty_free(self, monkeypatch):
        # clients at 1 and 2 from one facility, one outlier: guesses
        # (1, 1.5, 2.25); with gamma 0.5 the first penalty, 2, equals the
        # farther distance, so the instance's one penalty-free search serves
        # all three guesses; with gamma 1 two guesses bind and the third
        # reads that same search, as LS-NF does
        calls = []
        original = kmedian.local_search_penalties
        monkeypatch.setattr(kmedian, "local_search_penalties",
                            lambda pinst, frac: calls.append(pinst) or original(pinst, frac))
        inst = tiny([[1.0], [2.0]], [0, 0], [[0.0]])
        for gamma, searches in ((0.5, 1), (1.0, 2)):
            calls.clear()
            r_ls_f(inst, OutlierBudgets((1,)), 1, gamma=gamma)
            assert len(calls) == searches
        calls.clear()
        ls_nf(inst, 1, 1)
        assert not calls
        fresh = tiny([[1.0], [2.0]], [0, 0], [[0.0]])
        r_ls_f(fresh, OutlierBudgets((1,)), 1, gamma=1.0)
        assert len(calls) == 3

    def test_swap_cutting_exactly_improve_frac_is_accepted(self):
        # from {0} (cost 3 + 1) the swap to {1} (cost 1 + 1) halves the cost
        inst = tiny([[0.0], [2.0]], [0, 0], [[3.0], [1.0]])
        pinst = PenaltyInstance(inst, 1, np.full(2, np.inf))
        assert assert_same_search(pinst, 0.5).open == frozenset({1})

    def test_result_is_improve_frac_local_optimum(self, rng):
        # brute force over every single swap: none cuts the cost by the
        # accepted fraction, each cost summed as the scan sums it
        for trial in range(150):
            pinst, improve_frac = _penalty_case(rng, grid=trial % 3 == 0)
            sol = local_search_penalties(pinst, improve_frac)
            dist, pen = pinst.base.distances(), pinst.penalty

            def cost_of(open_set):
                return float(np.minimum(dist[sorted(open_set)].min(axis=0), pen).sum())

            cost = cost_of(sol.open)
            target = cost * (1.0 - improve_frac)
            closed = set(range(pinst.base.n_facilities)) - sol.open
            for f_out in sol.open:
                for f_in in closed:
                    cand = cost_of(sol.open - {f_out} | {f_in})
                    assert not (cand <= target and cand < cost), (f_out, f_in, cand, cost)


class TestFreeSearchCache:
    def test_one_search_per_instance_k_and_improve_frac(self, monkeypatch):
        built = []
        original = kmedian.local_search_penalties
        monkeypatch.setattr(kmedian, "local_search_penalties",
                            lambda pinst, frac: built.append((pinst.k, frac)) or original(pinst, frac))
        monkeypatch.setattr(kmedian, "_free_searches", weakref.WeakKeyDictionary())
        inst = tiny([[0.0], [1.0], [5.0], [6.0]], [0, 0, 1, 1], [[0.0], [6.0], [3.0]])
        for k, frac in ((1, 0.01), (2, 0.01), (1, 0.01), (np.int64(2), 0.01), (2, 0.1)):
            ls_nf(inst, 1, k, improve_frac=frac)
        assert built == [(1, 0.01), (2, 0.01), (2, 0.1)]
        assert len(kmedian._free_searches[inst]) == 3

    def test_entry_dies_with_its_instance(self):
        inst, _ = generate_synthetic(SyntheticConfig(n_in=40, n_out=10, n_facilities=8, seed=0))
        budgets = budgets_from_pct(inst, 10.0)
        r_ls_f(inst, budgets, 3)
        ls_nf(inst, budgets.total, 3)
        copy = pickle.loads(pickle.dumps(inst))
        ls_nf(copy, budgets.total, 3)
        assert inst in kmedian._free_searches and copy in kmedian._free_searches
        alive = weakref.ref(inst), weakref.ref(copy)
        del inst, copy
        gc.collect()
        assert alive[0]() is None and alive[1]() is None  # nothing holds its instance alive

    def test_cache_hit_still_checks_k_and_improve_frac(self):
        inst = tiny([[0.0], [1.0], [5.0]], [0, 0, 1], [[0.0], [5.0]])
        budgets = OutlierBudgets((0, 0))
        ls_nf(inst, 0, 1)  # caches k = 1 (True hashes as 1) and improve_frac 0.01
        r_ls_f(inst, budgets, 2)  # and k = 2
        for bad_k in (True, 2.5):
            for run in (lambda: ls_nf(inst, 0, bad_k), lambda: r_ls_f(inst, budgets, bad_k),
                        lambda: r_ls_nf(inst, 0, bad_k)):
                with pytest.raises(ValueError, match="not an integer"):
                    run()
        for bad_frac in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="improve_frac"):
                ls_nf(inst, 0, 1, improve_frac=bad_frac)
            with pytest.raises(ValueError, match="improve_frac"):
                r_ls_f(inst, budgets, 1, improve_frac=bad_frac)
