import copy
import gc
import os
import pickle
import subprocess
import tracemalloc
import weakref
import sys
from dataclasses import replace
from pathlib import Path

from typing import Optional

import numpy as np
import pytest

from fairfl import (
    GreedyError,
    MetricInstance,
    OutlierBudgets,
    SyntheticConfig,
    gdf_f,
    gdf_nf,
    generate_synthetic,
    unfairness,
)
from fairfl import greedy as greedy_mod
from fairfl import instance as instance_mod
from fairfl.cli import budgets_from_pct, build_parser, prepare_instance, resolve_config
from fairfl.greedy import (
    _FIRST_WIDTH,
    _TIME_TOL,
    DualState,
    DualTrace,
    _connect,
    _dual_fit,
    _opening_times,
)
from fairfl.instance import assign_nearest, prune_pairs
from conftest import outliers, random_budgets, random_instance


def tiny(client_pts, groups, fac_pts, costs):
    return MetricInstance(np.array(client_pts, float), groups, np.array(fac_pts, float), costs)


class TestEventMechanics:
    def test_surplus_opening_hand_sim(self):
        # f=2 with clients at d=0 and d=1: surplus t + max(0, t-1) hits 2
        # at t=1.5, both connect, total cost 2 + 0 + 1
        inst = tiny([[0.0], [1.0]], [0, 0], [[0.0]], [2.0])
        trace = DualTrace()
        sol = gdf_f(inst, OutlierBudgets((0,)), trace)
        assert sol.total_cost == pytest.approx(3.0)
        kinds = [e[0] for e in trace.events]
        assert kinds == ["open"]
        assert trace.events[0][1] == pytest.approx(1.5)
        assert trace.events[0][3] == (0, 1)

    def test_zero_cost_facility_opens_immediately(self):
        inst = tiny([[0.5], [2.0]], [0, 0], [[0.0]], [0.0])
        trace = DualTrace()
        sol = gdf_f(inst, OutlierBudgets((0,)), trace)
        assert trace.events[0] == ("open", 0.0, 0, ())
        connects = [e for e in trace.events if e[0] == "connect"]
        assert [e[1] for e in connects] == pytest.approx([0.5, 2.0])
        assert sol.total_cost == pytest.approx(2.5)

    @pytest.mark.parametrize("swap", [False, True])
    def test_connection_and_opening_tied_in_time_go_by_facility_index(self, swap):
        # client 0 reaches the free facility at t = 2, when the other one's
        # surplus (2t from clients 1 and 2 at distance 0) covers its cost 4;
        # the lower facility index goes first
        fac, costs = [[0.0], [10.0]], [0.0, 4.0]
        if swap:
            fac, costs = fac[::-1], costs[::-1]
        inst = tiny([[2.0], [10.0], [10.0]], [0, 0, 0], fac, costs)
        trace = DualTrace()
        gdf_f(inst, OutlierBudgets((0,)), trace)
        if swap:
            assert trace.events == [("open", 0.0, 1, ()), ("open", 2.0, 0, (1, 2)),
                                    ("connect", 2.0, 1, (0,))]
        else:
            assert trace.events == [("open", 0.0, 0, ()), ("connect", 2.0, 0, (0,)),
                                    ("open", 2.0, 1, (1, 2))]

    def test_alpha_nondecreasing_and_unique_events(self, rng):
        for _ in range(20):
            inst = random_instance(rng, max_n=14, max_m=5)
            budgets = random_budgets(rng, inst)
            trace = DualTrace()
            gdf_f(inst, budgets, trace)
            times = [e[1] for e in trace.events]
            assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))
            opened = [e[2] for e in trace.events if e[0] == "open"]
            assert len(opened) == len(set(opened))
            connected = [j for e in trace.events for j in e[3]]
            assert len(connected) == len(set(connected))

    def test_surplus_paid_equals_cost_at_opening(self, rng):
        """Replay the event log; at each opening the active clients'
        accumulated budget beyond their distance must equal the cost."""
        for _ in range(15):
            inst = random_instance(rng, max_n=12, max_m=5, min_n=4)
            budgets = random_budgets(rng, inst)
            trace = DualTrace()
            gdf_f(inst, budgets, trace)
            dist = inst.distances()
            sizes = np.array([len(g) for g in inst.group_members])
            targets = sizes - np.array(budgets.per_group)
            connected = np.zeros(inst.n_clients, bool)
            withdrawn = np.zeros(inst.n_clients, bool)
            counts = np.zeros(inst.n_groups, int)
            active_g = targets > 0
            withdrawn[~active_g[inst.groups]] = True

            def connect(j):
                connected[j] = True
                g = inst.groups[j]
                counts[g] += 1
                if counts[g] >= targets[g]:
                    active_g[g] = False
                    withdrawn[(inst.groups == g) & ~connected & ~withdrawn] = True

            for kind, t, fac, clients in trace.events:
                if kind == "open":
                    active = ~connected & ~withdrawn & active_g[inst.groups]
                    paid = np.maximum(0.0, t - dist[fac, active]).sum()
                    assert paid == pytest.approx(inst.open_costs[fac], abs=1e-9)
                for j in clients:
                    assert not connected[j] and not withdrawn[j]
                    connect(j)

    def test_service_distance_bounded_by_final_clock(self, rng):
        for _ in range(15):
            inst = random_instance(rng, max_n=12, max_m=5)
            budgets = random_budgets(rng, inst)
            sizes = np.array([len(g) for g in inst.group_members])
            targets = sizes - np.array(budgets.per_group)
            state = _dual_fit(inst, inst.groups, targets)
            if not state.open:
                continue
            dist = inst.distances()[np.asarray(sorted(state.open))]
            nearest = dist.min(axis=0)
            for j in np.flatnonzero(state.connected):
                assert nearest[j] <= state.alpha + 1e-9


class TestFairness:
    def test_exact_budget_use_and_unfairness_one(self, rng):
        for _ in range(25):
            inst = random_instance(rng, max_n=14, max_m=5)
            budgets = random_budgets(rng, inst)
            sol = gdf_f(inst, budgets)
            assert sol.outlier_counts() == budgets.per_group
            assert unfairness(budgets, sol) == 1.0

    def test_two_group_targets_respected_after_early_finish(self):
        # group 0 sits on the facility and finishes first; group 1 keeps
        # driving the clock until its own target is met
        pts = [[0.0], [0.1], [5.0], [6.0], [7.0]]
        groups = [0, 0, 1, 1, 1]
        inst = tiny(pts, groups, [[0.0]], [0.5])
        budgets = OutlierBudgets((0, 1))
        sol = gdf_f(inst, budgets)
        assert sol.outlier_counts() == (0, 1)
        assert outliers(sol)[1] == frozenset({4})  # farthest group-1 client withdraws

    def test_single_group_equals_nonfair_bitwise(self, rng):
        for _ in range(100):
            inst = random_instance(rng, max_n=12, max_m=5, max_groups=1)
            budgets = random_budgets(rng, inst)
            fair = gdf_f(inst, budgets)
            nonfair = gdf_nf(inst, budgets.total)
            assert fair.open == nonfair.open
            assert np.array_equal(fair.dropped, nonfair.dropped)
            assert fair.assignment == nonfair.assignment
            assert fair.facility_cost == nonfair.facility_cost
            assert fair.connection_cost == nonfair.connection_cost


class TestEdges:
    def test_full_budget_serves_nobody(self):
        inst = tiny([[1.0], [2.0]], [0, 0], [[0.0]], [5.0])
        sol = gdf_nf(inst, 2)
        assert sol.open == frozenset()
        assert sol.outlier_counts() == (2,)
        assert sol.total_cost == 0.0

    def test_budget_validation(self):
        inst = tiny([[1.0]], [0], [[0.0]], [1.0])
        with pytest.raises(ValueError):
            gdf_nf(inst, 2)
        with pytest.raises(ValueError):
            gdf_f(inst, OutlierBudgets((2,)))

    def test_deterministic(self, rng):
        inst = random_instance(rng, max_n=12, max_m=5)
        budgets = random_budgets(rng, inst)
        a = gdf_f(inst, budgets)
        b = gdf_f(inst, budgets)
        assert a.open == b.open and np.array_equal(a.dropped, b.dropped)
        assert a.total_cost == b.total_cost


class TestGuards:
    def test_no_next_event_raises(self):
        inst = tiny([[0.0], [1.0]], [0, 0], [[0.0]], [np.inf])
        with pytest.raises(GreedyError, match="no next event"):
            gdf_f(inst, OutlierBudgets((0,)))
        with pytest.raises(GreedyError, match="no next event"):
            gdf_nf(inst, 1)

    def test_guard_survives_optimize_flag(self):
        code = (
            "import numpy as np\n"
            "from fairfl import GreedyError, MetricInstance, OutlierBudgets, gdf_f\n"
            "inst = MetricInstance(np.array([[0.0]]), [0], np.array([[0.0]]), [np.inf])\n"
            "try:\n"
            "    gdf_f(inst, OutlierBudgets((0,)))\n"
            "except GreedyError:\n"
            "    print('raised')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert out.stdout.strip() == "raised", out.stderr


# ---------------------------------------------------------------------------
# Full recomputation of every opening time at every event: the event loop as
# it was before opening times were kept between events, kept verbatim as the
# reference the incremental loop must reproduce bit for bit.


def _reference_opening_times(
    dist_sorted: np.ndarray, order: np.ndarray, active: np.ndarray, costs: np.ndarray, alpha: float
) -> np.ndarray:
    """Earliest clock at which each given facility's surplus covers its cost.

    Rows are facilities (already restricted to closed ones); the surplus at
    clock t is piecewise linear with breakpoints at client distances, so the
    opening time is solved per distance-sorted prefix.
    """
    act = active[order]
    ds = dist_sorted
    cnt = np.cumsum(act, axis=1)
    ssum = np.cumsum(np.where(act, ds, 0.0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (costs[:, None] + ssum) / cnt
    d_here = np.maximum.accumulate(np.where(act, ds, -np.inf), axis=1)
    masked = np.where(act, ds, np.inf)
    suffix = np.minimum.accumulate(masked[:, ::-1], axis=1)[:, ::-1]
    d_next = np.concatenate([suffix[:, 1:], np.full((ds.shape[0], 1), np.inf)], axis=1)
    valid = (cnt > 0) & (t >= d_here - _TIME_TOL) & (t <= d_next + _TIME_TOL)
    times = np.where(valid, t, np.inf).min(axis=1)
    return np.where(costs <= 0.0, alpha, times)



def _connect_one(state: DualState, j: int) -> None:
    """Connect one client; if its group just met its target, the group's
    remaining clients withdraw."""
    state.connected[j] = True
    g = int(state.group_of[j])
    state.connected_count[g] += 1
    if state.connected_count[g] >= state.coverage_target[g]:
        state.active_groups[g] = False
        rest = (state.group_of == g) & ~state.connected & ~state.withdrawn
        state.withdrawn[rest] = True


def _reference_dual_fit(
    inst: MetricInstance,
    group_of: np.ndarray,
    targets: np.ndarray,
    trace: Optional[DualTrace] = None,
) -> DualState:
    dist = inst.distances()
    m, n = dist.shape
    n_groups = len(targets)
    state = DualState(
        alpha=0.0,
        connected=np.zeros(n, dtype=bool),
        withdrawn=np.zeros(n, dtype=bool),
        open=[],
        coverage_target=np.asarray(targets, dtype=np.int64),
        connected_count=np.zeros(n_groups, dtype=np.int64),
        active_groups=np.ones(n_groups, dtype=bool),
        group_of=np.asarray(group_of, dtype=np.int64),
    )
    for g in range(n_groups):
        if state.coverage_target[g] <= 0:
            state.active_groups[g] = False
            rest = (state.group_of == g) & ~state.withdrawn
            state.withdrawn[rest] = True

    order = np.argsort(dist, axis=1, kind="stable")
    dist_sorted = np.take_along_axis(dist, order, axis=1)

    # nearest open facility per client, lowest index on distance ties
    d_open = np.full(n, np.inf)
    fac_open = np.full(n, m, dtype=np.int64)

    guard = n + m + 1
    while state.active_groups.any():
        guard -= 1
        if guard < 0:
            raise GreedyError("event loop failed to terminate")
        active = state.active_clients()
        if not active.any():
            raise GreedyError("active group with no available clients")

        best: tuple = (np.inf, m, n, "none")
        act_idx = np.flatnonzero(active)
        reachable = act_idx[np.isfinite(d_open[act_idx])]
        if reachable.size:
            t_a = d_open[reachable].min()
            hits = reachable[d_open[reachable] == t_a]
            pairs = sorted((int(fac_open[j]), int(j)) for j in hits)
            best = (float(t_a), pairs[0][0], pairs[0][1], "connect")

        closed = np.array([i for i in range(m) if i not in set(state.open)], dtype=np.int64)
        stale_bound = np.inf
        if closed.size:
            times = _reference_opening_times(
                dist_sorted[closed], order[closed], active, inst.open_costs[closed], state.alpha
            )
            pos = int(np.argmin(times))  # first occurrence = lowest facility index
            cand = (float(times[pos]), int(closed[pos]), -1, "open")
            if cand[:3] < best[:3]:
                best = cand

        t, facility, client, kind = best
        if not np.isfinite(t):
            raise GreedyError("no next event despite unmet coverage")
        if t < state.alpha - _TIME_TOL:
            raise GreedyError(f"next event at {t!r} precedes the clock {state.alpha!r}")
        state.alpha = max(state.alpha, t)

        if kind == "connect":
            _connect_one(state, client)
            if trace is not None:
                trace.events.append(("connect", state.alpha, facility, (client,)))
            if closed.size:
                stale_bound = float(times.min())
        else:
            # facility opens: in-range clients connect in ascending distance order
            state.open.append(facility)
            state.open.sort()
            row = dist[facility]
            better = (row < d_open) | ((row == d_open) & (facility < fac_open))
            d_open[better] = row[better]
            fac_open[better] = facility
            in_range = np.flatnonzero(active & (row <= state.alpha + _TIME_TOL))
            batch = []
            for j in in_range[np.lexsort((in_range, row[in_range]))]:
                g = int(state.group_of[j])
                if not state.active_groups[g]:
                    continue
                _connect_one(state, int(j))
                batch.append(int(j))
            if trace is not None:
                trace.events.append(("open", state.alpha, facility, tuple(batch)))
            still_closed = times[closed != facility] if closed.size else times[:0]
            if still_closed.size:
                stale_bound = float(still_closed.min())

        # Cheap phase: removing clients from play only delays facility
        # openings, so every connection strictly below the pre-event opening
        # bound fires before any facility opens; drain them without
        # recomputing opening times.
        if not state.active_groups.any():
            break
        active = state.active_clients()
        ready = np.flatnonzero(active & (d_open < stale_bound))
        if ready.size:
            for j in ready[np.lexsort((ready, fac_open[ready], d_open[ready]))]:
                j = int(j)
                if state.connected[j] or state.withdrawn[j]:
                    continue
                if not state.active_groups[state.group_of[j]]:
                    continue
                state.alpha = max(state.alpha, float(d_open[j]))
                _connect_one(state, j)
                if trace is not None:
                    trace.events.append(("connect", state.alpha, int(fac_open[j]), (j,)))
                if not state.active_groups.any():
                    break
    return state



def _events(trace: DualTrace) -> list[tuple]:
    return [(kind, float(t).hex(), fac, clients) for kind, t, fac, clients in trace.events]


def assert_same_run(inst: MetricInstance, group_of, targets) -> Optional[DualTrace]:
    """Run the incremental and the full-recomputation loop; their event
    logs, final clocks, open sets, outliers and costs must be identical."""
    fast, ref = DualTrace(), DualTrace()
    try:
        expected = _reference_dual_fit(inst, group_of, targets, ref)
    except GreedyError as err:
        with pytest.raises(GreedyError) as raised:
            _dual_fit(inst, group_of, targets, fast)
        assert str(raised.value) == str(err)
        return None
    got = _dual_fit(inst, group_of, targets, fast)
    assert _events(fast) == _events(ref)
    assert got.open == expected.open
    assert float(got.alpha).hex() == float(expected.alpha).hex()
    assert np.array_equal(got.withdrawn, expected.withdrawn)
    cost = assign_nearest(inst, got.open, got.withdrawn).total_cost
    ref_cost = assign_nearest(inst, expected.open, expected.withdrawn).total_cost
    assert cost.hex() == ref_cost.hex()
    return fast


def assert_same_fair_and_nonfair(inst: MetricInstance, budgets: OutlierBudgets) -> None:
    sizes = np.array([len(mem) for mem in inst.group_members], dtype=np.int64)
    assert_same_run(inst, inst.groups, sizes - np.array(budgets.per_group, dtype=np.int64))
    assert_same_run(inst, np.zeros(inst.n_clients, dtype=np.int64),
                    np.array([inst.n_clients - budgets.total], dtype=np.int64))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


class TestOpeningTimesKernel:
    """The active-only kernel against the full-row masked reference."""

    @staticmethod
    def _case(rng, rows, n, grid):
        if grid:  # integer distances: many ties
            dist = rng.integers(0, 4, (rows, n)).astype(float)
            costs = rng.integers(0, 4, rows).astype(float)
        else:
            dist = rng.random((rows, n)) * 10.0
            costs = rng.random(rows) * 5.0
        costs[rng.random(rows) < 0.2] = 0.0
        costs[rng.random(rows) < 0.1] = np.inf
        order = np.argsort(dist, axis=1, kind="stable")
        return np.take_along_axis(dist, order, axis=1), order, costs

    def test_bitwise_equal_to_reference(self, rng):
        for trial in range(400):
            rows, n = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            ds, order, costs = self._case(rng, rows, n, grid=trial % 2 == 0)
            active = rng.random(n) < rng.choice([0.0, 0.3, 0.7, 1.0])
            alpha = float(rng.random())
            got = _opening_times(ds, order, active, costs, alpha)
            want = _reference_opening_times(ds, order, active, costs, alpha)
            assert _bits(got) == _bits(want), (ds, active, costs)

    def test_edge_rows(self):
        ds = np.array([[0.0, 1.0, 1.0, 3.0]] * 3)
        order = np.tile(np.arange(4), (3, 1))
        costs = np.array([0.0, np.inf, 2.0])
        none = np.zeros(4, dtype=bool)
        got = _opening_times(ds, order, none, costs, 0.25)
        assert _bits(got) == _bits(_reference_opening_times(ds, order, none, costs, 0.25))
        assert got.tolist() == [0.25, np.inf, np.inf]  # zero cost: the clock; else inf
        some = np.array([False, True, True, False])
        got = _opening_times(ds, order, some, costs, 0.25)
        assert _bits(got) == _bits(_reference_opening_times(ds, order, some, costs, 0.25))
        assert got.tolist() == [0.25, np.inf, 2.0]  # tie at d=1: surplus 2(t-1) = 2


class TestBlockedOpeningTimes:
    """Block edges, early exits and row subsets of the blocked kernel, against
    the full-row masked reference."""

    @staticmethod
    def _rows_with_breakpoints(rng, active, targets, grid):
        """One sorted row per target: its own client order, and a cost that
        puts its opening time at the target's active position ``pos``, at
        the distance there (``low``), at the next one (``high``) or between."""
        n = active.size
        rows, orders, costs = [], [], []
        for pos, where in targets:
            dist = rng.integers(0, 40, n).astype(float) if grid else rng.random(n) * 10.0
            order = np.argsort(dist, kind="stable")
            ds = dist[order]
            act = ds[active[order]]
            here = act[pos]
            after = act[pos + 1] if pos + 1 < act.size else here + 1.0
            t = {"low": here, "mid": (here + after) / 2, "high": after}[where]
            rows.append(ds)
            orders.append(order)
            costs.append(float(np.sum(t - act[: pos + 1])))
        return np.array(rows), np.array(orders), np.array(costs)

    def _check(self, ds, order, active, costs, alpha=0.5):
        want = _reference_opening_times(ds, order, active, costs, alpha)
        assert _bits(_opening_times(ds, order, active, costs, alpha)) == _bits(want)
        for rows in (np.arange(0, len(ds), 2), np.arange(len(ds))[::-1], np.arange(0)):
            got = _opening_times(ds, order, active, costs[rows], alpha, rows)
            assert _bits(got) == _bits(want[rows])
        return want

    @pytest.mark.parametrize("grid", [False, True])
    def test_breakpoints_on_block_edges(self, rng, grid):
        # all clients active: the first blocks end after positions 63, 127
        # and 255; rows finish in different blocks, zero and infinite costs
        # sit among them
        active = np.ones(600, dtype=bool)
        edges = [0, 1, 61, 62, 63, 64, 65, 126, 127, 128, 129, 254, 255, 256, 257, 598, 599]
        targets = [(pos, where) for pos in edges for where in ("low", "mid", "high")]
        ds, order, costs = self._rows_with_breakpoints(rng, active, targets, grid)
        costs[::7] = 0.0
        costs[3::11] = np.inf
        times = self._check(ds, order, active, costs)
        assert np.isfinite(times[costs < np.inf]).all()

    @pytest.mark.parametrize("density", [0.9, 0.5, 0.2])
    def test_breakpoints_with_inactive_clients(self, rng, density):
        # inactive clients shift each row's block edges differently
        for _ in range(5):
            active = rng.random(700) < density
            n_act = int(active.sum())
            positions = rng.integers(0, n_act, 30).tolist() + [n_act - 1]
            targets = [(int(p), str(rng.choice(["low", "mid", "high"]))) for p in positions]
            ds, order, costs = self._rows_with_breakpoints(rng, active, targets, grid=False)
            costs[rng.random(costs.size) < 0.1] = 0.0
            costs[rng.random(costs.size) < 0.1] = np.inf
            self._check(ds, order, active, costs)

    def test_fewer_active_than_first_width(self, rng):
        assert _FIRST_WIDTH > 8
        for n_act in (1, 2, 5, _FIRST_WIDTH - 1, _FIRST_WIDTH, _FIRST_WIDTH + 1):
            for n in (n_act, n_act + 3, 300):
                active = np.zeros(n, dtype=bool)
                active[rng.permutation(n)[:n_act]] = True
                targets = [(int(p), "mid") for p in rng.integers(0, n_act, 8)]
                ds, order, costs = self._rows_with_breakpoints(rng, active, targets, grid=True)
                costs[0] = 0.0
                costs[-1] = np.inf
                self._check(ds, order, active, costs)

    @pytest.mark.parametrize("first_width", [1, 2, 3, 5])
    def test_random_rows_at_small_first_widths(self, rng, monkeypatch, first_width):
        monkeypatch.setattr(greedy_mod, "_FIRST_WIDTH", first_width)
        for trial in range(200):
            rows, n = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            ds, order, costs = TestOpeningTimesKernel._case(rng, rows, n, grid=trial % 2 == 0)
            costs[costs > 0] *= float(rng.choice([0.1, 1.0, 20.0]))
            active = rng.random(n) < rng.choice([0.1, 0.5, 1.0])
            self._check(ds, order, active, costs, float(rng.random()))


class TestOpeningTimeWork:
    def test_recomputed_rows_on_the_synthetic_sweep(self, monkeypatch):
        # kept opening times are recomputed only where an event can change
        # them, and connections that order before the earliest kept opening
        # are drained without any recompute; a wrapper on the module's
        # _opening_times sees every recompute
        work = [0, 0]

        def counting(dist_sorted, order, active, costs, alpha, rows=None):
            work[0] += 1
            work[1] += dist_sorted.shape[0] if rows is None else len(rows)
            return _opening_times(dist_sorted, order, active, costs, alpha, rows)

        monkeypatch.setattr(greedy_mod, "_opening_times", counting)
        inst = prune_pairs(generate_synthetic(SyntheticConfig(seed=0))[0])
        for pct in range(1, 11):
            budgets = budgets_from_pct(inst, float(pct))
            gdf_f(inst, budgets)
            gdf_nf(inst, budgets.total)
        assert work == [110, 8723]


def _large_csv_instance(tmp_path) -> MetricInstance:
    """The table, sample and k-means facilities of the 4500x100 acceptance
    sweep, prepared as ``fairfl sweep`` prepares it."""
    rng = np.random.default_rng(7)
    n_rows = 6000
    features = np.column_stack(
        [
            rng.normal(50, 12, n_rows),
            rng.exponential(8.0, n_rows),
            rng.normal(0, 1, n_rows),
            rng.uniform(0, 100, n_rows),
            rng.normal(30, 5, n_rows),
            rng.exponential(2.0, n_rows),
        ]
    )
    groups = np.where(rng.random(n_rows) < 2 / 3, "A", "B")
    path = tmp_path / "big.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c0,c1,c2,c3,c4,c5,grp\n")
        for row, g in zip(features, groups):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{g}\n")
    args = build_parser().parse_args(
        ["sweep", "--dataset", str(path), "--group-col", "grp", "--n", "4500",
         "--m", "100", "--seed", "0"]
    )
    return prepare_instance(resolve_config(args))[0]


class TestIncrementalMatchesFullRecompute:
    """The incremental event loop against ``_reference_dual_fit``."""

    def test_random_suite(self, random_suite):
        for inst, budgets in random_suite:
            assert_same_fair_and_nonfair(inst, budgets)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_synthetic_sweep(self, seed):
        inst, _ = generate_synthetic(SyntheticConfig(seed=seed))
        inst = prune_pairs(inst)
        for pct in range(1, 11):
            assert_same_fair_and_nonfair(inst, budgets_from_pct(inst, float(pct)))

    @pytest.mark.parametrize("first_width", [1, 2])
    def test_small_first_widths(self, random_suite, monkeypatch, first_width):
        monkeypatch.setattr(greedy_mod, "_FIRST_WIDTH", first_width)
        for inst, budgets in random_suite[::4]:
            assert_same_fair_and_nonfair(inst, budgets)
        inst = prune_pairs(generate_synthetic(SyntheticConfig(seed=0))[0])
        for pct in (1.0, 6.0):
            assert_same_fair_and_nonfair(inst, budgets_from_pct(inst, pct))

    def test_large_csv_instance(self, tmp_path):
        inst = _large_csv_instance(tmp_path)
        assert (inst.n_clients, inst.n_facilities) == (4500, 100)
        assert_same_fair_and_nonfair(inst, budgets_from_pct(inst, 5.0))

    def test_ties_and_zero_costs_on_integer_grid(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 9))
            m = data.draw(st.integers(1, 5))
            n_groups = data.draw(st.integers(1, min(3, n)))
            coord = st.integers(0, 3)
            clients = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
            facilities = data.draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
            costs = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
            extra = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=n - n_groups,
                                       max_size=n - n_groups))
            inst = MetricInstance(np.array(clients, float), list(range(n_groups)) + extra,
                                  np.array(facilities, float), np.array(costs, float))
            budgets = OutlierBudgets(tuple(
                data.draw(st.integers(0, len(mem))) for mem in inst.group_members
            ))
            assert_same_fair_and_nonfair(inst, budgets)

        check()


def _fresh(inst: MetricInstance) -> MetricInstance:
    """An equal instance object whose free run is not built yet."""
    return pickle.loads(pickle.dumps(inst))


def _targets(inst: MetricInstance, budgets: OutlierBudgets, fair: bool) -> tuple:
    """``_dual_fit``'s (group_of, targets) for GDF-F or GDF-NF."""
    if fair:
        sizes = np.array([len(mem) for mem in inst.group_members], dtype=np.int64)
        return inst.groups, sizes - np.array(budgets.per_group, dtype=np.int64)
    return (np.zeros(inst.n_clients, dtype=np.int64),
            np.array([inst.n_clients - budgets.total], dtype=np.int64))


def _call_orders(budget_list) -> dict:
    """(fair, budgets) call sequences on one instance object: GDF-NF first,
    budgets descending, and every call twice."""
    up = sorted(budget_list, key=lambda b: (b.total, b.per_group))
    return {
        "nf-first": [(fair, b) for b in up for fair in (False, True)],
        "descending": [(fair, b) for b in up[::-1] for fair in (True, False)],
        "repeats": [(fair, b) for b in up for fair in (True, False) for _ in range(2)],
    }


def assert_calls_match_reference(inst: MetricInstance, calls) -> None:
    for fair, budgets in calls:
        assert_same_run(inst, *_targets(inst, budgets, fair))


class TestResumeMatchesReference:
    """Every call on an instance object resumes the object's free run; its
    events and solution must be those of ``_reference_dual_fit``, whatever
    ran on the object before."""

    def test_random_suite_in_several_orders(self, random_suite):
        rng = np.random.default_rng(31)
        for inst, budgets in random_suite[::2]:
            sizes = [len(mem) for mem in inst.group_members]
            budget_list = [
                budgets,
                OutlierBudgets((0,) * len(sizes)),  # every group covers all its clients
                OutlierBudgets(tuple(sizes[:1]) + (0,) * (len(sizes) - 1)),  # group 0: target 0
                random_budgets(rng, inst),
            ]
            for calls in _call_orders(budget_list).values():
                assert_calls_match_reference(_fresh(inst), calls)

    def test_synthetic_sweep_in_several_orders(self):
        inst = prune_pairs(generate_synthetic(SyntheticConfig(seed=1))[0])
        budget_list = [budgets_from_pct(inst, float(pct)) for pct in (1, 4, 10)]
        for calls in _call_orders(budget_list).values():
            assert_calls_match_reference(_fresh(inst), calls)

    def test_two_groups_meet_their_targets_in_one_iteration(self):
        # facility 0 opens first and connects one client of each group; the
        # opening of facility 1 then connects two of each, and both groups
        # meet their target of 2 within that one loop iteration
        inst = tiny([[0.0], [0.0], [100.0], [100.0], [100.0], [100.0]], [0, 1, 0, 0, 1, 1],
                    [[0.0], [100.0]], [1.0, 4.0])
        budgets = OutlierBudgets((1, 1))
        fast = assert_same_run(inst, *_targets(inst, budgets, True))
        run = greedy_mod._free_runs[inst]
        conns = run.ends[run.starts]
        hits = [int(np.flatnonzero(inst.groups[run.clients] == g)[1]) for g in (0, 1)]
        iterations = [int(np.searchsorted(conns, hit, side="right")) - 1 for hit in hits]
        assert iterations[0] == iterations[1] > 0
        assert run.resume_point(inst.groups, np.array([2, 2])) == iterations[0]
        assert [e[0] for e in fast.events] == ["open", "open"]
        assert fast.events[1][3] == (2, 4)  # one of each group connects, then both withdraw

    def test_zero_and_infinite_costs(self, rng):
        for _ in range(30):
            inst = random_instance(rng, max_n=12, max_m=6)
            costs = inst.open_costs.copy()
            costs[rng.random(costs.size) < 0.3] = 0.0
            costs[rng.random(costs.size) < 0.3] = np.inf
            inst = MetricInstance(inst.client_coords, inst.groups, inst.facility_coords, costs)
            budget_list = [random_budgets(rng, inst) for _ in range(3)]
            assert_calls_match_reference(inst, _call_orders(budget_list)["repeats"])

    def test_pickled_copy_builds_its_own_free_run(self, rng, monkeypatch):
        built = []
        original = greedy_mod._free_run
        monkeypatch.setattr(greedy_mod, "_free_run", lambda inst: built.append(1) or original(inst))
        inst = random_instance(rng, max_n=12, max_m=5)
        budgets = random_budgets(rng, inst)
        assert_same_fair_and_nonfair(inst, budgets)
        copy = pickle.loads(pickle.dumps(inst))
        assert copy not in greedy_mod._free_runs
        assert_same_fair_and_nonfair(copy, budgets)
        assert len(built) == 2
        for fair in (True, False):
            a, b = DualTrace(), DualTrace()
            _dual_fit(inst, *_targets(inst, budgets, fair), a)
            _dual_fit(copy, *_targets(copy, budgets, fair), b)
            assert _events(a) == _events(b)

    def test_calls_in_any_order(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 10))
            m = data.draw(st.integers(1, 5))
            n_groups = data.draw(st.integers(1, min(3, n)))
            coord = st.integers(0, 3)
            clients = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
            facilities = data.draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
            costs = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.5, np.inf]),
                                       min_size=m, max_size=m))
            extra = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=n - n_groups,
                                       max_size=n - n_groups))
            inst = MetricInstance(np.array(clients, float), list(range(n_groups)) + extra,
                                  np.array(facilities, float), np.array(costs))
            budgets = st.builds(lambda caps: OutlierBudgets(tuple(caps)), st.tuples(
                *(st.integers(0, len(mem)) for mem in inst.group_members)))
            calls = data.draw(st.lists(st.tuples(st.booleans(), budgets), min_size=1, max_size=6))
            assert_calls_match_reference(inst, calls)

        check()


class TestFreeRunCache:
    def test_built_once_per_instance_and_freed_with_it(self, monkeypatch):
        built = []
        original = greedy_mod._free_run
        monkeypatch.setattr(greedy_mod, "_free_run", lambda inst: built.append(1) or original(inst))
        monkeypatch.setattr(greedy_mod, "_free_runs", weakref.WeakKeyDictionary())
        inst = prune_pairs(generate_synthetic(SyntheticConfig(seed=0))[0])
        for pct in (10.0, 1.0, 5.0, 1.0):
            budgets = budgets_from_pct(inst, pct)
            gdf_f(inst, budgets)
            gdf_nf(inst, budgets.total)
        assert len(built) == 1
        copy = pickle.loads(pickle.dumps(inst))
        gdf_nf(copy, 3)
        assert len(built) == 2 and len(greedy_mod._free_runs) == 2
        alive = weakref.ref(inst)
        del inst, copy
        gc.collect()
        assert alive() is None  # the record holds no reference back to its instance
        assert len(greedy_mod._free_runs) == 0


class TestFairEqualsNonfairOnOneGroup:
    def test_same_events_and_solution(self):
        # with one group, GDF-F's per-group target is GDF-NF's global one
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 12))
            m = data.draw(st.integers(1, 5))
            coord = st.one_of(st.integers(0, 3), st.floats(0.0, 3.0))
            clients = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
            facilities = data.draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
            costs = data.draw(st.lists(
                st.one_of(st.sampled_from([0.0, 1.0, 2.0, np.inf]), st.floats(0.0, 5.0)),
                min_size=m, max_size=m))
            budget = data.draw(st.integers(0, n))
            inst = MetricInstance(np.array(clients, float), np.zeros(n, dtype=np.int64),
                                  np.array(facilities, float), np.array(costs))
            fair_trace, nonfair_trace = DualTrace(), DualTrace()
            try:
                fair = gdf_f(inst, OutlierBudgets((budget,)), fair_trace)
            except GreedyError as err:
                with pytest.raises(GreedyError) as raised:
                    gdf_nf(inst, budget, nonfair_trace)
                assert str(raised.value) == str(err)
                return
            nonfair = gdf_nf(inst, budget, nonfair_trace)
            assert _events(fair_trace) == _events(nonfair_trace)
            assert fair.open == nonfair.open
            assert np.array_equal(fair.dropped, nonfair.dropped)
            assert fair.assignment == nonfair.assignment
            assert fair.facility_cost.hex() == nonfair.facility_cost.hex()
            assert fair.connection_cost.hex() == nonfair.connection_cost.hex()

        check()


class TestBatchSteps:
    """``_connect`` takes a batch in one step, and the sorted prefixes are
    built in row blocks; both give what the one-client loop and a single
    block give."""

    @staticmethod
    def _state(group_of, targets, counts) -> DualState:
        n = len(group_of)
        return DualState(
            alpha=0.0,
            connected=np.zeros(n, dtype=bool),
            withdrawn=np.zeros(n, dtype=bool),
            open=[],
            coverage_target=np.array(targets, dtype=np.int64),
            connected_count=np.array(counts, dtype=np.int64),
            active_groups=np.array(counts) < np.array(targets),
            group_of=np.array(group_of, dtype=np.int64),
        )

    @staticmethod
    def _check(state: DualState, batch: np.ndarray) -> None:
        expected = copy.deepcopy(state)
        joined = []
        for j in batch.tolist():
            if expected.active_groups[expected.group_of[j]]:
                _connect_one(expected, j)
                joined.append(j)
        assert _connect(state, batch).tolist() == joined
        for name in ("connected", "withdrawn", "connected_count", "active_groups"):
            assert getattr(state, name).tolist() == getattr(expected, name).tolist(), name

    def test_group_meets_its_target_mid_batch(self):
        # group 0 needs 2 of its 3 batch clients and withdraws its fourth
        # client; group 1 connects all 3 of its batch clients and keeps playing
        state = self._state([0, 1, 0, 1, 0, 0, 1, 1], targets=[2, 5], counts=[0, 1])
        self._check(state, np.array([1, 0, 6, 2, 4, 3]))
        assert np.flatnonzero(state.connected).tolist() == [0, 1, 2, 3, 6]
        assert np.flatnonzero(state.withdrawn).tolist() == [4, 5]
        assert state.active_groups.tolist() == [False, True]

    def test_random_batches(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n, n_groups = int(rng.integers(1, 30)), int(rng.integers(1, 4))
            group_of = rng.integers(0, n_groups, n)
            counts = rng.integers(0, 4, n_groups)
            state = self._state(group_of, counts + rng.integers(1, 6, n_groups), counts)
            in_play = np.flatnonzero(state.active_groups[group_of])
            self._check(state, rng.permutation(in_play)[: int(rng.integers(0, in_play.size + 1))])

    def test_drain_batch_where_both_groups_meet_their_targets(self):
        # facility 0 opens at once; one drain then reaches every client, and
        # group 0 meets its target at the third connection, group 1 at the last
        inst = tiny([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]], [0, 1, 0, 1, 0, 1],
                    [[0.0], [100.0]], [0.0, 1e6])
        trace = assert_same_run(inst, inst.groups, np.array([2, 3]))
        assert [(kind, fac, clients) for kind, _, fac, clients in trace.events] == [
            ("open", 0, ()), *(("connect", 0, (j,)) for j in (0, 1, 2, 3, 5))
        ]

    def test_compaction_in_one_row_blocks(self, random_suite, monkeypatch):
        monkeypatch.setattr(instance_mod, "_BLOCK_BYTES", 1)
        for inst, budgets in random_suite[::4]:
            assert_same_fair_and_nonfair(_fresh(inst), budgets)


def _reference_free_run(inst: MetricInstance) -> dict:
    """``_FreeRun``'s arrays, but for ``starts``, from ``_reference_dual_fit``
    with one group whose target exceeds the client count."""
    n, trace = inst.n_clients, DualTrace()
    try:
        _reference_dual_fit(inst, np.zeros(n, dtype=np.int64), np.array([n + 1]), trace)
    except GreedyError:
        pass
    events = trace.events
    return {
        "clients": np.array([j for e in events for j in e[3]], dtype=np.int64),
        "opens": np.array([e[0] == "open" for e in events], dtype=bool),
        "time": np.array([e[1] for e in events], dtype=float),
        "fac": np.array([e[2] for e in events], dtype=np.int64),
        "ends": np.cumsum([0] + [len(e[3]) for e in events], dtype=np.int64),
    }


class TestSortedPrefix:
    """Each facility's row holds only a sorted prefix of the clients in play,
    rebuilt wider when a recompute needs more and from the clients still in
    play once half have left; the events are those of whole sorted rows."""

    @staticmethod
    def _cases(random_suite) -> list:
        rng = np.random.default_rng(41)
        cases = list(random_suite)
        for inst, budgets in random_suite[::2]:
            costs = inst.open_costs.copy()
            costs[rng.random(costs.size) < 0.3] = 0.0
            costs[rng.random(costs.size) < 0.3] = np.inf
            cases.append((replace(inst, open_costs=costs), budgets))
        return cases

    def _check_free_runs_and_resumes(self, random_suite) -> None:
        for inst, budgets in self._cases(random_suite):
            inst = _fresh(inst)
            assert_same_fair_and_nonfair(inst, budgets)  # the first call builds the free run
            run = greedy_mod._free_runs[inst]
            for name, want in _reference_free_run(inst).items():
                got = getattr(run, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            full = OutlierBudgets((0,) * inst.n_groups)
            assert_calls_match_reference(inst, [(True, full), (False, budgets), (True, budgets)])

    def test_free_runs_and_resumes_match_the_reference(self, random_suite):
        self._check_free_runs_and_resumes(random_suite)

    def test_from_a_one_column_prefix(self, random_suite, monkeypatch):
        # the loop asks for 4 * _FIRST_WIDTH columns first and doubles that;
        # scaled down, its first prefix holds one column, so every rebuild
        # runs: wider after a recompute ran out, and from fewer clients
        real, asked = greedy_mod._sorted_prefix, []

        def narrow(dist, cols, width):
            asked.append((cols.size, width // (4 * _FIRST_WIDTH)))
            return real(dist, cols, max(1, asked[-1][1]))

        monkeypatch.setattr(greedy_mod, "_sorted_prefix", narrow)
        monkeypatch.setattr(instance_mod, "_BLOCK_BYTES", 1)  # one row per block
        self._check_free_runs_and_resumes(random_suite)
        assert {width for _, width in asked} >= {1, 2, 4}
        assert any(b[1] == a[1] and b[0] < a[0] for a, b in zip(asked, asked[1:]))

    @pytest.mark.parametrize("first_width", [1, 3, _FIRST_WIDTH])
    def test_kernel_on_prefixes_of_whole_rows(self, rng, monkeypatch, first_width):
        # the first k sorted columns of a whole row are a prefix: the kernel
        # gives the whole rows' times, bit for bit, or None when one of its
        # rows that is not done needs more columns
        monkeypatch.setattr(greedy_mod, "_FIRST_WIDTH", first_width)
        outcomes = set()
        for trial in range(150):
            rows, n = int(rng.integers(1, 7)), int(rng.integers(1, 30))
            ds, order, costs = TestOpeningTimesKernel._case(rng, rows, n, grid=trial % 2 == 0)
            costs[costs > 0] *= float(rng.choice([0.1, 1.0, 20.0]))
            active = rng.random(n) < rng.choice([0.2, 0.6, 1.0])
            alpha = float(rng.random())
            want = _reference_opening_times(ds, order, active, costs, alpha)
            for k in range(1, n + 1):
                got = _opening_times(ds[:, :k], order[:, :k], active, costs, alpha)
                outcomes.add(got is None)
                assert got is None or _bits(got) == _bits(want)
                if active[order[:, :k]].sum(axis=1).min() == active.sum():
                    assert got is not None  # every row holds every active client
        assert outcomes == {True, False}


class TestGdfMemory:
    def test_one_gdf_f_allocates_less_than_one_distance_matrix(self, tmp_path):
        # a fresh instance as set-up leaves it: distance matrix computed,
        # pairs pruned but not read, no free run yet.  Whole sorted rows
        # took about 12.6 MB here; GDF never reads the pairs (3.6 MB more).
        inst = _large_csv_instance(tmp_path)
        budgets = budgets_from_pct(inst, 5.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gdf_f(inst, budgets)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert "pair_arrays" not in vars(inst)
        assert peak < inst.distances().nbytes  # 3.6 MB
