"""LP-free greedy heuristics driven by a uniformly growing client budget.

Every unconnected client's budget equals a single global clock.  A closed
facility accumulates surplus sum(max(0, clock - d)) over the clients still
in play and opens the moment that surplus covers its opening cost; clients
reach an open facility when the clock passes their distance to it.  Each
group stops participating once enough of its members are connected, and the
clients it leaves behind become that group's outliers.  Event times are
solved in closed form from the piecewise-linear surplus growth, never by
time stepping.

One rule orders the events: a client reaching its nearest open facility f'
at time d connects before facility f opens at time t exactly when (d, f')
orders before (t, f).  Clients only leave play, which can only delay an
opening, so a kept opening time bounds that facility's next one from below
and connections ordering before the earliest kept time need no recompute.

Opening times are kept between events and recomputed incrementally: a
facility's time t is recomputed only when a client within t + 2*_TIME_TOL
of it has left play since t was computed (zero-cost facilities, whose time
is the clock, at every event).  Clients leaving beyond that radius cannot
change t, so the event trace is bitwise the one full recomputation gives.
Each recomputation reads only the active clients' sorted distances, and only
as far along them as the opening time can still fall (see
``_opening_times``).  A run sorts only a prefix of each facility's row: its
4 * _FIRST_WIDTH nearest clients in play.  When a recomputation needs an
active client past a row's prefix, the width doubles and the prefixes are
rebuilt from the clients then in play; they are also rebuilt, at the same
width, once fewer than half the clients they were built from are in play.
A prefix that holds every client in play is the whole sorted row.

Targets act only through withdrawal, so until the first group meets its
target every run on an instance makes the same events.  The loop therefore
runs once per instance object with no group ever withdrawing (the free run,
kept while the instance lives), and each call resumes it at the start of the
loop iteration that holds the first connection at which one of its groups
meets its target.  The resume restores the connected and open sets, the
clock and every client's nearest open facility (lowest index on ties),
replays the trace prefix and recomputes every closed facility's opening
time.  Up to that connection the call's run and the free run are the same
run, and a recompute gives every kept time bitwise, so the resumed events
are the ones a run from the clock's start gives.  A group with target <= 0
withdraws at the start, so such a call resumes at iteration 0: the plain
run.  The iteration guard counts the replayed iterations, and a
``GreedyError`` of the free run is raised again by a call resumed at the
iteration that raised it.

Each client's clock in the free run, the time of the event that connects it
(``connection_clocks``), also sizes the LP's cold start
(``fairfl.lp._start_pairs``), so the first LP solved on an instance runs the
free run when no GDF call has, and GDF calls after it resume the same record.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .instance import (
    IntegralSolution,
    MetricInstance,
    OutlierBudgets,
    assign_nearest,
    check_total_budget,
    nearest_rows,
    row_blocks,
)

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
) -> Optional[np.ndarray]:
    """Earliest clock at which each given facility's surplus covers its cost.

    Rows are facilities with their distances sorted ascending, ``order``
    naming the client at each sorted position; ``rows`` picks the ones to
    solve (default all), one cost each.  The surplus at clock t is piecewise
    linear with breakpoints at the active clients' distances, so the opening
    time is solved per prefix of the active sorted row.  ``active`` is one
    mask over clients, so the first w active distances of every row form a
    rectangular, still sorted array.

    A row may hold only a sorted prefix of its clients (``_sorted_prefix``):
    its nearest ones, every active client left out lying no nearer than
    the last one held.  A row that holds all ``active.sum()`` active clients
    is whole.  When a row that is not done needs an active distance past its
    prefix, the call returns None.

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
        w = int(act.sum(axis=1).min())
        if w < n_act:
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
        if raw == width and todo.size:
            return None  # whole rows end at hi == n_act, so these are prefixes
        raw *= 2
    return times


def _sorted_prefix(dist: np.ndarray, cols: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``width`` nearest clients of ``cols`` (all of them if
    fewer) by ascending distance: their distances and the clients.

    Any client of ``cols`` left out lies no nearer than the last one held.
    The tie order is immaterial, since only sorted values are read.  Rows
    are taken in blocks of about ``_BLOCK_BYTES`` of temporaries.
    """
    width = min(width, cols.size)
    dist_sorted = np.empty((dist.shape[0], width))
    order = np.empty((dist.shape[0], width), dtype=np.int64)
    for blk in row_blocks(dist.shape[0], 32 * cols.size):
        sub = dist[blk][:, cols]
        near = None
        if width < cols.size:
            near = np.argpartition(sub, width - 1, axis=1)[:, :width]
            sub = np.take_along_axis(sub, near, axis=1)
        rank = np.argsort(sub, axis=1)
        dist_sorted[blk] = np.take_along_axis(sub, rank, axis=1)
        order[blk] = cols[rank if near is None else np.take_along_axis(near, rank, axis=1)]
    return dist_sorted, order


def _connect(state: DualState, batch: np.ndarray) -> np.ndarray:
    """Connect the clients of ``batch``, all in play, one by one in batch
    order while their group plays: each group's first target - count of
    them.  A group that meets its target stops playing and its remaining
    clients withdraw.  Returns the connected clients in batch order."""
    groups = state.group_of[batch]
    by_group = np.argsort(groups, kind="stable")
    grouped = groups[by_group]
    rank = np.empty(batch.size, dtype=np.int64)  # among the batch's clients of its group
    rank[by_group] = np.arange(batch.size) - np.searchsorted(grouped, grouped)
    joined = rank < (state.coverage_target - state.connected_count)[groups]
    batch = batch[joined]
    state.connected[batch] = True
    state.connected_count += np.bincount(groups[joined], minlength=len(state.connected_count))
    met = state.active_groups & (state.connected_count >= state.coverage_target)
    if met.any():
        state.active_groups[met] = False
        state.withdrawn |= met[state.group_of] & ~state.connected
    return batch


@dataclass(frozen=True)
class _FreeRun:
    """One instance's event loop run with no group ever withdrawing, until
    it raises (at the latest when no client is left in play).

    ``clients`` holds the clients in connection order.  Event e happens at
    clock ``time[e]``: facility ``fac[e]`` opens (``opens[e]``) or a client
    connects through it, and ``clients[ends[e]:ends[e + 1]]`` connect.
    Loop iteration i starts once ``starts[i]`` events have happened.  Only
    arrays of at most n + m + 1 entries are held, none of them the instance's.
    """

    clients: np.ndarray
    opens: np.ndarray
    time: np.ndarray
    fac: np.ndarray
    ends: np.ndarray
    starts: np.ndarray

    def resume_point(self, group_of: np.ndarray, targets: np.ndarray) -> int:
        """The last loop iteration starting before the first connection at
        which a group meets its (positive) target; the last recorded one if
        no group meets its target within the record."""
        seq = group_of[self.clients]
        hit = self.clients.size
        for g, target in enumerate(targets.tolist()):
            pos = np.flatnonzero(seq == g)
            if target <= pos.size:
                hit = min(hit, int(pos[target - 1]))
        return int(np.searchsorted(self.ends[self.starts], hit, side="right")) - 1

    def replay(self, count: int) -> list[tuple]:
        """The first ``count`` events as ``DualTrace`` records them."""
        clients, ends = self.clients.tolist(), self.ends.tolist()
        return [
            ("open" if is_open else "connect", t, f, tuple(clients[ends[e] : ends[e + 1]]))
            for e, (is_open, t, f) in enumerate(
                zip(self.opens[:count].tolist(), self.time[:count].tolist(),
                    self.fac[:count].tolist())
            )
        ]


# free runs by instance object; an entry dies with its instance
_free_runs: weakref.WeakKeyDictionary[MetricInstance, _FreeRun] = weakref.WeakKeyDictionary()


def _free_run(inst: MetricInstance) -> _FreeRun:
    """Run the event loop on ``inst`` with one group whose target exceeds
    the client count, so nobody withdraws, and record it."""
    n = inst.n_clients
    state = DualState(
        alpha=0.0,
        connected=np.zeros(n, dtype=bool),
        withdrawn=np.zeros(n, dtype=bool),
        open=[],
        coverage_target=np.array([n + 1], dtype=np.int64),
        connected_count=np.zeros(1, dtype=np.int64),
        active_groups=np.ones(1, dtype=bool),
        group_of=np.zeros(n, dtype=np.int64),
    )
    trace, starts = DualTrace(), []
    try:
        _event_loop(inst, state, trace, n + inst.n_facilities + 1, starts)
    except GreedyError:
        pass  # a run resumed at the iteration that raised raises it again
    events = trace.events
    return _FreeRun(
        clients=np.array([j for e in events for j in e[3]], dtype=np.int64),
        opens=np.array([e[0] == "open" for e in events], dtype=bool),
        time=np.array([e[1] for e in events], dtype=float),
        fac=np.array([e[2] for e in events], dtype=np.int64),
        ends=np.cumsum([0] + [len(e[3]) for e in events], dtype=np.int64),
        starts=np.array(starts, dtype=np.int64),
    )


def _cached_free_run(inst: MetricInstance) -> _FreeRun:
    """``inst``'s free run, run on the first call and kept while ``inst`` lives."""
    run = _free_runs.get(inst)
    if run is None:
        run = _free_runs[inst] = _free_run(inst)
    return run


def connection_clocks(inst: MetricInstance) -> np.ndarray:
    """Each client's clock ``alpha_j`` in the free run of ``inst``: the time
    of the event that connects it, inf for a client the run never connects.
    These are the Jain-Vazirani duals the LP's start reads."""
    run = _cached_free_run(inst)
    clocks = np.full(inst.n_clients, np.inf)
    clocks[run.clients] = np.repeat(run.time, np.diff(run.ends))
    return clocks


def _dual_fit(
    inst: MetricInstance,
    group_of: np.ndarray,
    targets: np.ndarray,
    trace: Optional[DualTrace] = None,
) -> DualState:
    group_of = np.asarray(group_of, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    playing = targets > 0  # a group with nothing to cover withdraws at the start
    run = _cached_free_run(inst)
    # the free run's state at the start of iteration ``it`` is this run's
    it = run.resume_point(group_of, targets) if playing.all() else 0
    events = int(run.starts[it])
    done = run.clients[: run.ends[events]]
    connected = np.zeros(inst.n_clients, dtype=bool)
    connected[done] = True
    state = DualState(
        alpha=float(run.time[events - 1]) if events else 0.0,
        connected=connected,
        withdrawn=~playing[group_of],
        open=sorted(run.fac[:events][run.opens[:events]].tolist()),
        coverage_target=targets,
        connected_count=np.bincount(group_of[done], minlength=len(targets)),
        active_groups=playing,
        group_of=group_of,
    )
    if trace is not None:
        trace.events.extend(run.replay(events))
    return _event_loop(inst, state, trace, inst.n_clients + inst.n_facilities + 1 - it)


def _event_loop(
    inst: MetricInstance,
    state: DualState,
    trace: Optional[DualTrace],
    guard: int,
    starts: Optional[list] = None,
) -> DualState:
    """Run the event loop from ``state`` while a group plays, at most
    ``guard`` more iterations, with every closed facility's opening time
    computed afresh at the first.  ``starts``, if given, gets the trace
    length at each iteration's start."""
    dist = inst.distances()
    m, n = dist.shape
    # each row holds a sorted prefix of the clients in play (``cols``): its
    # ``width`` nearest.  Clients never re-enter play, so the prefixes are
    # rebuilt from the clients then in play once fewer than half of ``cols``
    # are, and with ``width`` doubled when ``_opening_times`` needs more.
    width = 4 * _FIRST_WIDTH
    cols = np.flatnonzero(state.active_clients())
    dist_sorted, order = _sorted_prefix(dist, cols, width)

    # nearest open facility per client, lowest index on distance ties
    d_open = np.full(n, np.inf)
    fac_open = np.full(n, m, dtype=np.int64)
    is_open = np.zeros(m, dtype=bool)
    if state.open:
        rows = np.array(state.open, dtype=np.int64)
        is_open[rows] = True
        d_open, fac_open = nearest_rows(dist, rows)

    # ``drain`` applies the ordering rule: at the top of the loop below the
    # earliest fresh opening time, after an opening below the earliest kept
    # one, a lower bound on every later opening.  Open facilities keep an
    # infinite time, so ``argmin(open_time)`` is the earliest closed one.
    #
    # Opening times are kept per facility and recomputed only where an event
    # can change them.  If every client that left since a facility's time t
    # was computed lies beyond t + 2*_TIME_TOL, a recompute returns t bitwise:
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

    def drain(t: float, f: int) -> bool:
        """Connect, in (time, facility, client) order, every client in play
        that reaches its nearest open facility before an opening at (t, f);
        True if any did."""
        ready = np.flatnonzero(
            state.active_clients() & ((d_open < t) | ((d_open == t) & (fac_open < f)))
        )
        if not ready.size:
            return False
        batch = _connect(state, ready[np.lexsort((ready, fac_open[ready], d_open[ready]))])
        clock = np.maximum.accumulate(np.concatenate([[state.alpha], d_open[batch]]))
        state.alpha = float(clock[-1])
        if trace is not None:
            trace.events.extend(
                ("connect", a, i, (j,))
                for a, i, j in zip(clock[1:].tolist(), fac_open[batch].tolist(), batch.tolist())
            )
        return True

    while state.active_groups.any():
        if starts is not None:
            starts.append(len(trace.events))
        guard -= 1
        if guard < 0:
            raise GreedyError("event loop failed to terminate")
        active = state.active_clients()
        if not active.any():
            raise GreedyError("active group with no available clients")

        left = np.flatnonzero(seen & ~active)
        if left.size:
            np.minimum(left_min, dist[:, left].min(axis=1), out=left_min)
        lost = recheck | ((left_min <= open_time + 2 * _TIME_TOL) & ~fixed)
        stale = np.flatnonzero(lost & ~is_open)
        if 2 * np.count_nonzero(active) < cols.size:
            cols = np.flatnonzero(active)
            del dist_sorted, order  # freed before their rebuild
            dist_sorted, order = _sorted_prefix(dist, cols, width)
        if stale.size:
            while (times := _opening_times(
                dist_sorted, order, active, costs[stale], state.alpha, stale
            )) is None:
                width *= 2
                cols = np.flatnonzero(active)
                del dist_sorted, order
                dist_sorted, order = _sorted_prefix(dist, cols, width)
            open_time[stale] = times
            left_min[stale] = np.inf
        seen = active
        facility = int(np.argmin(open_time))  # first occurrence = lowest facility index
        t = float(open_time[facility])
        if drain(t, facility):
            continue
        if not np.isfinite(t):
            raise GreedyError("no next event despite unmet coverage")
        if t < state.alpha - _TIME_TOL:
            raise GreedyError(f"next event at {t!r} precedes the clock {state.alpha!r}")
        state.alpha = max(state.alpha, t)

        # facility opens: in-range clients connect in ascending distance order
        state.open.append(facility)
        state.open.sort()
        is_open[facility] = True
        open_time[facility] = np.inf
        row = dist[facility]
        better = (row < d_open) | ((row == d_open) & (facility < fac_open))
        d_open[better] = row[better]
        fac_open[better] = facility
        in_range = np.flatnonzero(active & (row <= state.alpha + _TIME_TOL))
        batch = _connect(state, in_range[np.lexsort((in_range, row[in_range]))])
        if trace is not None:
            trace.events.append(("open", state.alpha, facility, tuple(batch.tolist())))
        facility = int(np.argmin(open_time))
        drain(float(open_time[facility]), facility)
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
    return assign_nearest(inst, state.open, state.withdrawn)


def gdf_nf(
    inst: MetricInstance, total_budget: int, trace: Optional[DualTrace] = None
) -> IntegralSolution:
    """Non-fair baseline: one global coverage target n - total_budget."""
    targets = np.array([inst.n_clients - check_total_budget(inst, total_budget)], dtype=np.int64)
    state = _dual_fit(inst, np.zeros(inst.n_clients, dtype=np.int64), targets, trace)
    return assign_nearest(inst, state.open, state.withdrawn)
