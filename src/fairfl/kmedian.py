"""k-median with group-fair outliers via a penalty reduction.

The fair variant guesses the optimal service cost on a geometric grid,
encodes each group's outlier budget as a per-client penalty inversely
proportional to that budget, and solves every resulting k-median-with-
penalties instance by single-swap local search.  Non-fair baselines reuse
the same machinery with a single merged budget, or skip penalties entirely
and drop the farthest clients after a plain k-median search.  The paying
clients' read-only mask becomes the integral solution's dropped clients.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .instance import (
    IntegralSolution,
    MetricInstance,
    OutlierBudgets,
    assign_nearest,
    check_k,
    check_total_budget,
    nearest_rows,
    row_blocks,
)


class LocalSearchError(RuntimeError):
    """Local search broke its checked swap-count bound or found no admissible guess."""


@dataclass(frozen=True)
class PenaltyInstance:
    """k-median where each client may opt out by paying its penalty.

    Penalties are non-negative and may be +inf, which marks a client that
    must always be served.
    """

    base: MetricInstance
    k: int
    penalty: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "k", check_k(self.base, self.k))
        pen = np.asarray(self.penalty, dtype=float)
        if pen.shape != (self.base.n_clients,):
            raise ValueError("need one penalty per client")
        if np.any(np.isnan(pen)) or np.any(pen < 0):
            raise ValueError("penalties must be non-negative and not NaN")
        object.__setattr__(self, "penalty", pen)


@dataclass(frozen=True)
class PenaltySolution:
    """Open set plus the canonical serve-or-pay split it induces.

    A client pays exactly when its penalty is strictly below its distance
    to the nearest open facility; everyone else is served by that facility.
    ``paying`` is a read-only mask with one bool per client.
    """

    open: frozenset[int]
    paying: np.ndarray
    service_cost: float
    penalty_paid: float

    @property
    def total_cost(self) -> float:
        return self.service_cost + self.penalty_paid


def _two_nearest(dist: np.ndarray, open_list: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest and second-nearest open distances per client.

    Ties resolve toward the lowest facility index.  Second distance is +inf
    when only one facility is open.
    """
    rows = np.asarray(sorted(open_list), dtype=np.int64)
    sub = dist[rows]  # a copy: the nearest entries are masked out below
    d1, first = nearest_rows(sub, np.arange(len(rows)))
    sub[first, np.arange(dist.shape[1])] = np.inf
    return d1, rows[first], sub.min(axis=0)


def _canonical_solution(pinst: PenaltyInstance, open_list: Sequence[int]) -> PenaltySolution:
    d1 = pinst.base.distances()[np.asarray(sorted(open_list), dtype=np.int64)].min(axis=0)
    pays = pinst.penalty < d1  # ties serve
    pays.flags.writeable = False
    service = float(d1[~pays].sum())
    paid = float(pinst.penalty[pays].sum())
    return PenaltySolution(frozenset(int(i) for i in open_list), pays, service, paid)


def local_search_penalties(pinst: PenaltyInstance, improve_frac: float = 0.01) -> PenaltySolution:
    """Single-swap local search on the serve-or-pay objective.

    Starts from the k lowest-index facilities and scans swaps in
    lexicographic (outgoing, incoming) order, accepting the first swap that
    cuts the current cost by at least ``improve_frac`` of itself; stops when
    a full scan finds none.

    A swap's cost is ``sum_j min(base_j, d_in_j, p_j)``, with ``base`` the
    nearest distance left once the outgoing facility closes.  ``min`` is
    exact, so clipping ``base`` at the penalties once per outgoing facility
    gives every candidate's terms bit for bit.  The incoming candidates are
    scanned in ascending row blocks (open rows are summed too, then masked
    out), each row one contiguous sum as a whole-matrix sum gives it, and
    the scan stops at the first block holding an accepted swap.
    """
    if not (0 < improve_frac < 1):
        raise ValueError("improve_frac must be in (0, 1)")
    dist = pinst.base.distances()
    m = pinst.base.n_facilities
    pen = pinst.penalty
    open_list = list(range(pinst.k))
    d1, a1, d2 = _two_nearest(dist, open_list)
    cost = float(np.minimum(d1, pen).sum())
    start_cost = cost
    accepted = 0

    blocks = row_blocks(m, dist[0].nbytes)
    buf = np.empty_like(dist[blocks[0]])
    improved = True
    while improved:
        improved = False
        is_closed = np.ones(m, dtype=bool)
        is_closed[open_list] = False
        if not is_closed.any():
            break
        target = cost * (1.0 - improve_frac)
        for f_out in open_list:
            base = np.minimum(np.where(a1 == f_out, d2, d1), pen)
            for rows in blocks:
                part = dist[rows]
                cand_cost = np.minimum(part, base, out=buf[: len(part)]).sum(axis=1)
                hits = np.flatnonzero(is_closed[rows] & (cand_cost <= target) & (cand_cost < cost))
                if hits.size:
                    open_list = sorted(set(open_list) - {f_out} | {rows.start + int(hits[0])})
                    d1, a1, d2 = _two_nearest(dist, open_list)
                    cost = float(np.minimum(d1, pen).sum())
                    accepted += 1
                    improved = True
                    break
            if improved:
                break

    if accepted and cost > 0:
        # each accepted swap shrinks cost by factor <= (1 - improve_frac)
        bound = math.log(start_cost / cost) / math.log(1.0 / (1.0 - improve_frac))
        if accepted > bound + 1e-6:
            raise LocalSearchError(f"{accepted} swaps exceeds decay bound {bound:.3f}")
    return _canonical_solution(pinst, open_list)


# penalty-free searches by instance object, then (k, improve_frac); an
# entry dies with its instance
_free_searches: weakref.WeakKeyDictionary[MetricInstance, dict[tuple[int, float], PenaltySolution]] = (
    weakref.WeakKeyDictionary()
)


def _free_search(inst: MetricInstance, k: int, improve_frac: float) -> PenaltySolution:
    """The search with no penalties (all +inf) on ``inst``, run once per
    instance object, ``k`` and ``improve_frac``; ``k`` and ``improve_frac``
    are checked on every call, cached or not."""
    k = check_k(inst, k)
    if not (0 < improve_frac < 1):
        raise ValueError("improve_frac must be in (0, 1)")
    searches = _free_searches.setdefault(inst, {})
    if (k, improve_frac) not in searches:
        pinst = PenaltyInstance(inst, k, np.full(inst.n_clients, np.inf))
        searches[k, improve_frac] = local_search_penalties(pinst, improve_frac)
    return searches[k, improve_frac]


def _penalties_for(groups: np.ndarray, caps: Sequence[int], guess: float, gamma: float) -> np.ndarray:
    """Per-client penalty guess / (gamma * cap of the client's group); +inf
    where that cap is zero, so those clients can never pay."""
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    caps_arr = np.array(caps, dtype=float)
    per_group = np.where(caps_arr > 0, guess / (gamma * np.maximum(caps_arr, 1e-300)), np.inf)
    return per_group[groups]


def _grid_from_totals(inst: MetricInstance, total_budget: int, eps_guess: float) -> tuple[float, ...]:
    """Geometric guesses lo * (1 + eps_guess)^t for the optimal service cost,
    from lo up to the first value reaching hi.

    Every served client contributes between the smallest positive and the
    largest facility-client distance, which gives lo and hi; a single 0.0
    when nobody is served or every distance is zero.
    """
    if not 0 < eps_guess < math.inf:
        raise ValueError(f"eps_guess must be positive and finite, got {eps_guess!r}")
    n = inst.n_clients
    if total_budget > n:
        raise ValueError("total budget exceeds client count")
    served = n - total_budget
    dist = inst.distances()
    positive = dist > 0
    if served == 0 or not positive.any():
        return (0.0,)
    lo = served * float(dist.min(where=positive, initial=np.inf))
    hi = served * float(dist.max())
    values = [lo]
    v = lo
    while v < hi * (1.0 - 1e-12):
        v *= 1.0 + eps_guess
        values.append(v)
    return tuple(values)


def _reduce_and_search(
    inst: MetricInstance,
    groups: np.ndarray,
    caps: Sequence[int],
    k: int,
    gamma: float,
    eps_guess: float,
    improve_frac: float,
) -> PenaltySolution:
    """Run the guess grid and pick a winner.

    A candidate is admissible when every group's outlier count stays within
    (n_groups + gamma) times its cap; the cheapest admissible candidate by
    service cost wins, ties to the smaller violation ratio, then the earliest
    grid value.  The last guess, at least ``served * d_max * (1 - 1e-12)``,
    is admissible up to that margin (group g pays only if ``served < gamma *
    cap_g``, and then has at most ``served + cap_g`` payers), so a grid with
    none raises ``LocalSearchError``.

    A guess whose penalties all reach each client's farthest facility is
    penalty-free: a penalty enters the search only through
    ``min(x, p_j)`` with ``x`` one of client j's distances (at k = 1 the
    clipped ``base`` is ``p_j`` instead of inf, and it only meets such an
    ``x``), so every cost, comparison and swap is the all-inf search's, bit
    for bit, and nobody pays.  A penalty-free guess therefore reads the
    instance's one penalty-free search (``_free_search``), which ``ls_nf``
    and every other call with the same ``k`` and ``improve_frac`` share;
    each guess with a binding penalty gets its own.  The penalties grow with
    the guess, so every guess after the first penalty-free one is
    penalty-free too and would yield the same candidate at a later grid
    value, which the ``min`` never picks: the grid stops there.
    """
    n_groups = len(caps)
    grid = _grid_from_totals(inst, int(sum(caps)), eps_guess)
    slack = n_groups + gamma
    farthest = inst.distances().max(axis=0)

    def admissible():
        for t, guess in enumerate(grid):
            penalty = _penalties_for(groups, caps, guess, gamma)
            if np.all(penalty >= farthest):  # so is every later guess
                psol = _free_search(inst, k, improve_frac)
                yield psol.service_cost, 0.0, t, psol
                return
            psol = local_search_penalties(PenaltyInstance(inst, k, penalty), improve_frac)
            counts = np.bincount(groups[psol.paying], minlength=n_groups)
            viol = max((c / (slack * cap) for c, cap in zip(counts.tolist(), caps) if c), default=0.0)
            if viol <= 1.0:
                yield psol.service_cost, viol, t, psol

    # t makes every key distinct
    best = min(admissible(), key=lambda c: c[:3], default=None)
    if best is None:
        raise LocalSearchError(f"no guess of the {len(grid)}-value grid keeps every group "
                               f"within {slack:g} times its cap")
    return best[3]


def _drop_farthest(
    group_members: Sequence[np.ndarray], nearest: np.ndarray, caps: Sequence[int]
) -> tuple[float, np.ndarray]:
    """Optimal outliers for a fixed open set: per group, the ``cap`` clients
    farthest from it (ties toward the lower client index).  Returns the kept
    connection cost and the dropped clients as a mask over ``nearest``."""
    kept = 0.0
    dropped = np.zeros(len(nearest), dtype=bool)
    for members, cap in zip(group_members, caps):
        vals = nearest[members]
        if cap == 0:
            kept += float(vals.sum())
            continue
        order = np.lexsort((members, -vals))
        dropped[members[order[:cap]]] = True
        kept += float(vals[order[cap:]].sum())
    return kept, dropped


def r_ls_f(
    inst: MetricInstance,
    budgets: OutlierBudgets,
    k: int,
    gamma: Optional[float] = None,
    eps_guess: float = 0.5,
    improve_frac: float = 0.01,
) -> IntegralSolution:
    """Fair k-median: penalty reduction per group plus local search."""
    budgets.validate_for(inst)
    if gamma is None:
        gamma = eps_guess
    psol = _reduce_and_search(
        inst, inst.groups, budgets.per_group, k, gamma, eps_guess, improve_frac
    )
    return assign_nearest(inst, psol.open, psol.paying)


def r_ls_nf(
    inst: MetricInstance,
    total_budget: int,
    k: int,
    gamma: Optional[float] = None,
    eps_guess: float = 0.5,
    improve_frac: float = 0.01,
) -> IntegralSolution:
    """Non-fair baseline: same reduction with one merged outlier budget."""
    total_budget = check_total_budget(inst, total_budget)
    if gamma is None:
        gamma = eps_guess
    merged = np.zeros(inst.n_clients, dtype=np.int64)
    psol = _reduce_and_search(inst, merged, (total_budget,), k, gamma, eps_guess, improve_frac)
    return assign_nearest(inst, psol.open, psol.paying)


def ls_nf(
    inst: MetricInstance,
    total_budget: int,
    k: int,
    improve_frac: float = 0.01,
) -> IntegralSolution:
    """Plain k-median local search, then drop the farthest clients.

    The ``total_budget`` clients farthest from their nearest open facility
    become outliers (ties toward the lower client index); the reported cost
    excludes them.  The search is the instance's one penalty-free search
    (``_free_search``), which R+LS's penalty-free guesses share.
    """
    total_budget = check_total_budget(inst, total_budget)
    psol = _free_search(inst, k, improve_frac)
    d1, _, _ = _two_nearest(inst.distances(), sorted(psol.open))
    _, dropped = _drop_farthest([np.arange(inst.n_clients)], d1, [total_budget])
    return assign_nearest(inst, psol.open, dropped)
