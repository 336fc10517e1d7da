"""Exhaustive reference solvers for small instances.

These enumerate facility subsets outright and exist purely as ground truth
for tests and tiny CLI runs; they refuse instances above the size guard
rather than approximate.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator

import numpy as np

from .instance import IntegralSolution, MetricInstance, OutlierBudgets, assign_nearest, check_k
from .kmedian import PenaltyInstance, PenaltySolution, _canonical_solution, _drop_farthest

SIZE_GUARD = 20


class OracleError(RuntimeError):
    """No facility subset gives a finite-cost solution."""


def _check_guard(inst: MetricInstance) -> None:
    if inst.n_facilities > SIZE_GUARD:
        raise ValueError(
            f"{inst.n_facilities} facilities exceeds the enumeration guard of {SIZE_GUARD}"
        )


def _cheapest(scored: Iterable[tuple[float, tuple[int, ...]]]) -> tuple[float, tuple[int, ...]]:
    """The cheapest (cost, subset) of a non-empty stream.  Costs within
    1e-12 (relative) tie, and ties resolve to the lexicographically smallest
    subset."""
    stream = iter(scored)
    best_cost, best_subset = next(stream)
    for cost, subset in stream:
        if cost < best_cost - 1e-12 or (
            abs(cost - best_cost) <= 1e-12 * max(1.0, abs(best_cost)) and subset < best_subset
        ):
            best_cost, best_subset = cost, subset
    return best_cost, best_subset


def _subsets(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """Every non-empty subset of range(m) with at most k members."""
    for size in range(1, k + 1):
        yield from combinations(range(m), size)


def _exact(
    inst: MetricInstance, budgets: OutlierBudgets, k: int, fees: np.ndarray
) -> IntegralSolution:
    """The cheapest solution over every subset of at most ``k`` facilities,
    the empty one included.

    A subset costs its directly summed ``fees`` plus the kept connection
    cost of its per-group farthest drop, the optimal outliers for a fixed
    open set.  With nobody open every client is infinitely far, so the empty
    subset costs 0 when every group may drop all its clients and +inf
    otherwise.  Raises ``OracleError`` when every subset costs +inf.
    """
    dist = inst.distances()

    def score(subset: tuple[int, ...]) -> tuple[float, np.ndarray]:
        rows = np.array(subset, dtype=np.intp)
        nearest = dist.take(rows, axis=0).min(axis=0, initial=np.inf)
        kept, dropped = _drop_farthest(inst.group_members, nearest, budgets.per_group)
        return float(fees.take(rows).sum()) + kept, dropped

    subsets = chain([()], _subsets(inst.n_facilities, k))
    cost, best = _cheapest((score(s)[0], s) for s in subsets)
    if not np.isfinite(cost):
        raise OracleError("no facility subset has a finite cost")
    return assign_nearest(inst, best, score(best)[1])


def exact_flfo(inst: MetricInstance, budgets: OutlierBudgets) -> IntegralSolution:
    """Brute-force optimum for facility location with per-group outliers.

    Scores every facility subset; for a fixed subset the best outliers are
    the per-group farthest clients.  Cost ties resolve to the
    lexicographically smallest open set.  Raises ``OracleError`` when every
    subset that can serve the non-outliers costs +inf.
    """
    _check_guard(inst)
    budgets.validate_for(inst)
    return _exact(inst, budgets, inst.n_facilities, inst.open_costs)


def exact_kmfo(inst: MetricInstance, budgets: OutlierBudgets, k: int) -> IntegralSolution:
    """Brute-force optimum for k-median with per-group outliers."""
    _check_guard(inst)
    budgets.validate_for(inst)
    return _exact(inst, budgets, check_k(inst, k), np.zeros(inst.n_facilities))


def exact_kmp(pinst: PenaltyInstance) -> PenaltySolution:
    """Brute-force optimum for k-median with penalties.

    Every subset of at most k facilities is scored as the sum over clients
    of min(distance to subset, penalty); the empty set means everyone pays.
    """
    _check_guard(pinst.base)
    dist = pinst.base.distances()
    pen = pinst.penalty
    scored = (
        (float(np.minimum(dist[np.asarray(s)].min(axis=0), pen).sum()), s)
        for s in _subsets(pinst.base.n_facilities, pinst.k)
    )
    _, best_subset = _cheapest(chain([(float(pen.sum()), ())], scored))
    if not best_subset:
        paying = np.ones(pinst.base.n_clients, dtype=bool)
        paying.flags.writeable = False
        return PenaltySolution(frozenset(), paying, 0.0, float(pen.sum()))
    return _canonical_solution(pinst, best_subset)
