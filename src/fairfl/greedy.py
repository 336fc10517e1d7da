"""LP-free greedy heuristics driven by a uniformly growing client budget.

Every unconnected client's budget equals a single global clock.  A closed
facility accumulates surplus sum(max(0, clock - d)) over the clients still
in play and opens the moment that surplus covers its opening cost; clients
reach an open facility when the clock passes their distance to it.  Each
group stops participating once enough of its members are connected, and the
clients it leaves behind become that group's outliers.  Event times are
solved in closed form from the piecewise-linear surplus growth, never by
time stepping.

Opening times are kept between events and recomputed incrementally: a
facility's time t is recomputed only when a client within t + 2*_TIME_TOL
of it has left play since t was computed (zero-cost facilities, whose time
is the clock, at every event).  Clients leaving beyond that radius cannot
change t, so the event trace is bitwise the one full recomputation gives.
Each recomputation reads only the active clients' sorted distances, and only
as far along them as the opening time can still fall (see
``_opening_times``); the sorted rows drop departed clients once half of them
have left.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .instance import IntegralSolution, MetricInstance, OutlierBudgets, assign_nearest

_TIME_TOL = 1e-9
_FIRST_WIDTH = 64  # first column block of ``_opening_times``


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
    dist_sorted: np.ndarray,
    order: np.ndarray,
    active: np.ndarray,
    costs: np.ndarray,
    alpha: float,
    rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Earliest clock at which each given facility's surplus covers its cost.

    Rows are facilities with their distances sorted ascending, ``order``
    naming the client at each sorted position; ``rows`` picks the ones to
    solve (default all), one cost each.  The surplus at clock t is piecewise
    linear with breakpoints at the active clients' distances, so the opening
    time is solved per prefix of the active sorted row.  ``active`` is one
    mask over clients, so every row keeps the same number of active entries
    and the active distances form a rectangular, still sorted array.

    Prefixes are solved in column blocks of growing width.  Each block is
    read from a prefix of the sorted rows, doubled from ``_FIRST_WIDTH`` as
    needed, that holds the block and the active distance after it in every
    remaining row.  The running sum is carried into each block's first
    column, so every prefix sum is the one a sequential ``cumsum`` of the
    whole active row gives.  A row is done once its next active distance
    minus ``_TIME_TOL`` exceeds its best valid time: a later prefix is valid
    only at a time not below that, so none gives a smaller time.
    """
    if rows is None:
        rows = np.arange(dist_sorted.shape[0])
    times = np.where(costs <= 0.0, alpha, np.inf)
    n_act = int(np.count_nonzero(active))
    todo = np.flatnonzero((costs > 0.0) & (costs < np.inf)) if n_act else rows[:0]
    width = dist_sorted.shape[1]
    sums = np.zeros(len(rows))  # prefix sum carried into the next block
    lo, raw = 0, _FIRST_WIDTH
    while todo.size:
        raw = min(raw, width)
        act = active[order[rows[todo], :raw]]
        # every remaining row's first w active distances lie in the prefix;
        # a block may end before the last of them unless it ends the row
        w = n_act
        if raw < width:
            w = int(act.sum(axis=1).min())
            act &= np.cumsum(act, axis=1) <= w
        hi = w if w == n_act else w - 1
        if hi > lo:
            ds = dist_sorted[rows[todo], :raw][act].reshape(todo.size, w)
            here = ds[:, lo:hi]
            acc = here.copy()
            acc[:, 0] += sums[todo]
            np.cumsum(acc, axis=1, out=acc)
            sums[todo] = acc[:, -1]
            t = (costs[todo, None] + acc) / np.arange(lo + 1, hi + 1)
            nxt = np.empty_like(here)
            nxt[:, :-1] = here[:, 1:]
            nxt[:, -1] = np.inf if hi == n_act else ds[:, hi]
            valid = (t >= here - _TIME_TOL) & (t <= nxt + _TIME_TOL)
            times[todo] = np.minimum(times[todo], np.where(valid, t, np.inf).min(axis=1))
            if hi == n_act:
                break
            todo = todo[nxt[:, -1] - _TIME_TOL <= times[todo]]
            lo = hi
        raw *= 2
    return times


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

    order = np.argsort(dist, axis=1)  # tie order is immaterial: only sorted values are read
    dist_sorted = np.take_along_axis(dist, order, axis=1)

    # nearest open facility per client, lowest index on distance ties
    d_open = np.full(n, np.inf)
    fac_open = np.full(n, m, dtype=np.int64)
    is_open = np.zeros(m, dtype=bool)

    # Opening times are kept per facility and recomputed only where an event
    # can change them.  Clients only ever leave play, which can only delay an
    # opening.  If every client that left since a facility's time t was
    # computed lies beyond t + 2*_TIME_TOL, a recompute returns t bitwise:
    # the sorted prefix up to t's breakpoint is unchanged, positions before a
    # removed client keep their time, and a breakpoint past a removed client
    # needs a time >= d - _TIME_TOL > t + _TIME_TOL.  ``left_min`` is the
    # distance to the nearest client that left since t was computed; a time
    # not yet computed is inf, which every distance undercuts.  A zero-cost
    # facility's time is the clock, so it is recomputed at every event; an
    # infinite cost gives an infinite time whatever is active.
    costs = inst.open_costs
    open_time = np.full(m, np.inf)
    left_min = np.full(m, np.inf)
    recheck = costs <= 0.0
    fixed = np.isinf(costs)
    seen = np.zeros(n, dtype=bool)  # the active mask the kept times were computed with

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

        closed = np.flatnonzero(~is_open)
        stale_bound = np.inf
        if closed.size:
            left = np.flatnonzero(seen & ~active)
            if left.size:
                np.minimum(left_min, dist[:, left].min(axis=1), out=left_min)
            lost = recheck | ((left_min <= open_time + 2 * _TIME_TOL) & ~fixed)
            stale = closed[lost[closed]]
            if 2 * act_idx.size < order.shape[1]:
                # clients never re-enter play: drop the departed ones from the sorted rows
                keep = active[order]
                dist_sorted = dist_sorted[keep].reshape(m, act_idx.size)
                order = order[keep].reshape(m, act_idx.size)
            if stale.size:
                open_time[stale] = _opening_times(
                    dist_sorted, order, active, costs[stale], state.alpha, stale
                )
                left_min[stale] = np.inf
            seen = active
            times = open_time[closed]
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
            is_open[facility] = True
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
    return assign_nearest(inst, state.open, np.flatnonzero(state.withdrawn))


def gdf_nf(
    inst: MetricInstance, total_budget: int, trace: Optional[DualTrace] = None
) -> IntegralSolution:
    """Non-fair baseline: one global coverage target n - total_budget."""
    if not 0 <= total_budget <= inst.n_clients:
        raise ValueError("total budget out of range")
    targets = np.array([inst.n_clients - total_budget], dtype=np.int64)
    state = _dual_fit(inst, np.zeros(inst.n_clients, dtype=np.int64), targets, trace)
    return assign_nearest(inst, state.open, np.flatnonzero(state.withdrawn))
