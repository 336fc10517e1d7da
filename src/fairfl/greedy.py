"""LP-free greedy heuristics driven by a uniformly growing client budget.

Every unconnected client's budget equals a single global clock.  A closed
facility accumulates surplus sum(max(0, clock - d)) over the clients still
in play and opens the moment that surplus covers its opening cost; clients
reach an open facility when the clock passes their distance to it.  Each
group stops participating once enough of its members are connected, and the
clients it leaves behind become that group's outliers.  Event times are
solved in closed form from the piecewise-linear surplus growth, never by
time stepping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .instance import IntegralSolution, MetricInstance, OutlierBudgets, assign_nearest

_TIME_TOL = 1e-9


class GreedyError(RuntimeError):
    """The event simulation reached a state its invariants exclude."""


@dataclass
class DualState:
    """Mutable simulation state (one global clock drives all budgets)."""

    alpha: float
    connected: np.ndarray
    withdrawn: np.ndarray
    open: list[int]
    coverage_target: np.ndarray
    connected_count: np.ndarray
    active_groups: np.ndarray
    dist: np.ndarray
    open_costs: np.ndarray
    group_of: np.ndarray

    def active_clients(self) -> np.ndarray:
        return ~self.connected & ~self.withdrawn & self.active_groups[self.group_of]


@dataclass
class DualTrace:
    """Event log for tests: ('open', t, facility, connected-tuple) and
    ('connect', t, facility, (client,))."""

    events: list[tuple] = field(default_factory=list)


def _opening_times(
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


def _connect(state: DualState, j: int) -> bool:
    """Connect one client; returns True if its group just met its target,
    in which case the group's remaining clients withdraw."""
    state.connected[j] = True
    g = int(state.group_of[j])
    state.connected_count[g] += 1
    if state.connected_count[g] >= state.coverage_target[g]:
        state.active_groups[g] = False
        rest = (state.group_of == g) & ~state.connected & ~state.withdrawn
        state.withdrawn[rest] = True
        return True
    return False


def _dual_fit(
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
        dist=dist,
        open_costs=inst.open_costs,
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
            times = _opening_times(
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
            _connect(state, client)
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
                _connect(state, int(j))
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
                _connect(state, j)
                if trace is not None:
                    trace.events.append(("connect", state.alpha, int(fac_open[j]), (j,)))
                if not state.active_groups.any():
                    break
    return state


def _withdrawn_by_group(inst: MetricInstance, state: DualState) -> list[set[int]]:
    outliers: list[set[int]] = [set() for _ in range(inst.n_groups)]
    for j in np.flatnonzero(state.withdrawn):
        outliers[int(inst.groups[j])].add(int(j))
    return outliers


def gdf_f(
    inst: MetricInstance, budgets: OutlierBudgets, trace: Optional[DualTrace] = None
) -> IntegralSolution:
    """Fair greedy heuristic: per-group coverage targets |C_g| - budget_g.

    Never exceeds any group's budget, so its unfairness is exactly 1.
    """
    budgets.validate_for(inst)
    sizes = np.array([len(mem) for mem in inst.group_members], dtype=np.int64)
    targets = sizes - np.array(budgets.per_group, dtype=np.int64)
    state = _dual_fit(inst, inst.groups, targets, trace)
    return assign_nearest(inst, state.open, _withdrawn_by_group(inst, state))


def gdf_nf(
    inst: MetricInstance, total_budget: int, trace: Optional[DualTrace] = None
) -> IntegralSolution:
    """Non-fair baseline: one global coverage target n - total_budget."""
    if not 0 <= total_budget <= inst.n_clients:
        raise ValueError("total budget out of range")
    targets = np.array([inst.n_clients - total_budget], dtype=np.int64)
    state = _dual_fit(inst, np.zeros(inst.n_clients, dtype=np.int64), targets, trace)
    return assign_nearest(inst, state.open, _withdrawn_by_group(inst, state))
