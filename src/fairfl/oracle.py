"""Exhaustive reference solvers for small instances.

These enumerate facility subsets outright and exist purely as ground truth
for tests and tiny CLI runs; they refuse instances above the size guard
rather than approximate.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator

import numpy as np

from .instance import IntegralSolution, MetricInstance, OutlierBudgets, assign_nearest
from .kmedian import PenaltyInstance, PenaltySolution, _canonical_solution, _drop_farthest

SIZE_GUARD = 20


class OracleError(RuntimeError):
    """No facility subset gives a finite-cost solution."""


def _check_guard(inst: MetricInstance) -> None:
    if inst.n_facilities > SIZE_GUARD:
        raise ValueError(
            f"{inst.n_facilities} facilities exceeds the enumeration guard of {SIZE_GUARD}"
        )


def _all_droppable(inst: MetricInstance, budgets: OutlierBudgets) -> bool:
    return all(
        cap >= len(members) for cap, members in zip(budgets.per_group, inst.group_members)
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


def exact_flfo(inst: MetricInstance, budgets: OutlierBudgets) -> IntegralSolution:
    """Brute-force optimum for facility location with per-group outliers.

    Walks all facility subsets in Gray-code order, maintaining each client's
    distance to the current subset incrementally; for a fixed subset the
    best outliers are the per-group farthest clients.  Cost ties resolve to
    the lexicographically smallest open set.  Raises ``OracleError`` when
    every subset that can serve the non-outliers costs +inf.
    """
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
    return _rebuild(inst, budgets, best_subset)


def _rebuild(
    inst: MetricInstance, budgets: OutlierBudgets, subset: tuple[int, ...]
) -> IntegralSolution:
    if subset:
        nearest = inst.distances()[np.asarray(subset)].min(axis=0)
    else:
        nearest = np.full(inst.n_clients, np.inf)
    _, dropped = _drop_farthest(inst.group_members, nearest, budgets.per_group)
    return assign_nearest(inst, subset, dropped)


def exact_kmfo(inst: MetricInstance, budgets: OutlierBudgets, k: int) -> IntegralSolution:
    """Brute-force optimum for k-median with per-group outliers."""
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
    return _rebuild(inst, budgets, best_subset)


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
        paying = frozenset(range(pinst.base.n_clients))
        return PenaltySolution(frozenset(), paying, 0.0, float(pen.sum()))
    return _canonical_solution(pinst, best_subset)
