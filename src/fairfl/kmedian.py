"""k-median with group-fair outliers via a penalty reduction.

The fair variant guesses the optimal service cost on a geometric grid,
encodes each group's outlier budget as a per-client penalty inversely
proportional to that budget, and solves every resulting k-median-with-
penalties instance by single-swap local search.  Non-fair baselines reuse
the same machinery with a single merged budget, or skip penalties entirely
and drop the farthest clients after a plain k-median search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .instance import (
    IntegralSolution,
    MetricInstance,
    OutlierBudgets,
    assign_nearest,
    nearest_rows,
    row_blocks,
)


class LocalSearchError(RuntimeError):
    """Local search broke its checked swap-count bound."""


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
        if not (1 <= self.k <= self.base.n_facilities):
            raise ValueError(f"k={self.k} outside [1, {self.base.n_facilities}]")
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
    """

    open: frozenset[int]
    paying: frozenset[int]
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
    n = dist.shape[1]
    if len(rows) == 1:
        return sub[0].copy(), np.full(n, rows[0]), np.full(n, np.inf)
    d1, first = nearest_rows(sub)
    sub[first, np.arange(n)] = np.inf
    return d1, rows[first], sub.min(axis=0)


def _canonical_solution(pinst: PenaltyInstance, open_list: Sequence[int]) -> PenaltySolution:
    d1 = pinst.base.distances()[np.asarray(sorted(open_list), dtype=np.int64)].min(axis=0)
    pays = pinst.penalty < d1  # ties serve
    paying = frozenset(np.flatnonzero(pays).tolist())
    service = float(d1[~pays].sum())
    paid = float(pinst.penalty[pays].sum())
    return PenaltySolution(frozenset(int(i) for i in open_list), paying, service, paid)


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
    if not eps_guess > 0:
        raise ValueError("eps_guess must be positive")
    n = inst.n_clients
    if total_budget > n:
        raise ValueError("total budget exceeds client count")
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
            counts = np.bincount(groups[sorted(psol.paying)], minlength=n_groups) if psol.paying else np.zeros(n_groups, dtype=int)
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


def _drop_farthest(
    group_members: Sequence[np.ndarray], nearest: np.ndarray, caps: Sequence[int]
) -> tuple[float, list[int]]:
    """Optimal outliers for a fixed open set: per group, the ``cap`` clients
    farthest from it (ties toward the lower client index).  Returns the kept
    connection cost and the dropped clients."""
    kept = 0.0
    dropped: list[int] = []
    for members, cap in zip(group_members, caps):
        vals = nearest[members]
        if cap == 0:
            kept += float(vals.sum())
            continue
        order = np.lexsort((members, -vals))
        dropped += members[order[:cap]].tolist()
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
    if not 0 <= total_budget <= inst.n_clients:
        raise ValueError("total budget out of range")
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
    excludes them.
    """
    if not 0 <= total_budget <= inst.n_clients:
        raise ValueError("total budget out of range")
    pinst = PenaltyInstance(inst, k, np.full(inst.n_clients, np.inf))
    psol = local_search_penalties(pinst, improve_frac)
    d1, _, _ = _two_nearest(inst.distances(), sorted(psol.open))
    _, dropped = _drop_farthest([np.arange(inst.n_clients)], d1, [total_budget])
    return assign_nearest(inst, psol.open, dropped)
