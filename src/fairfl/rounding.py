"""Bicriteria rounding of the outlier LP into an integral solution.

Pipeline: solve the relaxation, declare clients with outlier value at or
above 1 - epsilon to be outliers (at most a (1 + 2*epsilon) factor over
each budget for epsilon <= 1/2), renormalize the remaining clients'
assignment mass to 1 with the matching facility scaling, then open every
facility whose scaled opening value clears a threshold and connect retained
clients to their nearest open facility on the full metric, whatever pairs
the LP held.  The LP outliers are one read-only mask, passed on as the
solution's dropped clients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .instance import IntegralSolution, MetricInstance, OutlierBudgets, assign_nearest
from .lp import AGGREGATE, PER_GROUP, FractionalSolution, LpChain, build_flfo_lp, solve_lp


class RoundingError(RuntimeError):
    """A checked rounding guarantee failed, implicating the upstream LP."""


@dataclass(frozen=True)
class RoundingConfig:
    epsilon: float = 0.1
    open_threshold: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 0.5):
            raise ValueError("epsilon must lie in (0, 1/2]")
        if not (0.0 < self.open_threshold <= 1.0):
            raise ValueError("open_threshold must lie in (0, 1]")


@dataclass(frozen=True, eq=False)
class PartitionedClients:
    """``dropped``: a read-only mask of the clients of ``inst`` the LP drops."""

    inst: MetricInstance = field(repr=False)
    dropped: np.ndarray

    @property
    def outliers(self) -> tuple[np.ndarray, ...]:
        """Each group's dropped clients, for the benchmark's tracer."""
        return tuple(members[self.dropped[members]] for members in self.inst.group_members)


def identify_outliers(
    inst: MetricInstance,
    frac: FractionalSolution,
    budgets: OutlierBudgets,
    eps: float,
    fairness: str = PER_GROUP,
) -> PartitionedClients:
    """Clients whose outlier value is >= 1 - eps become integral outliers.

    Checked guarantee: each group's outlier count stays within
    (1 + 2*eps) times its budget (within the total budget in aggregate
    mode); a violation means the fractional solution was not feasible.
    """
    if not (0.0 < eps <= 0.5):
        raise ValueError("eps must lie in (0, 1/2]")
    dropped = frac.z >= 1.0 - eps
    dropped.flags.writeable = False
    if fairness == PER_GROUP:
        counts = np.bincount(inst.groups[dropped], minlength=inst.n_groups)
        for g, (used, cap) in enumerate(zip(counts.tolist(), budgets.per_group)):
            if used > (1.0 + 2.0 * eps) * cap + 1e-6:
                raise RoundingError(f"group {g}: {used} outliers exceeds (1+2*eps) * {cap}")
    else:
        total = int(dropped.sum())
        if total > (1.0 + 2.0 * eps) * budgets.total + 1e-6:
            raise RoundingError(f"{total} outliers exceeds (1+2*eps) * {budgets.total}")
    return PartitionedClients(inst, dropped)


def rescale(
    inst: MetricInstance,
    frac: FractionalSolution,
    part: PartitionedClients,
    eps: float,
) -> FractionalSolution:
    """Rescale retained clients to full assignment, lifting openings to match.

    Each retained client's assignment values are divided by their sum (which
    exceeds eps by construction), and each facility's opening value is
    multiplied by the largest such rescaling among the retained clients it
    fractionally serves, capped at 1.  Checked guarantees: retained clients
    sum to 1, assignments stay below openings, and the rescaled objective is
    at most the input objective divided by eps.
    """
    n = inst.n_clients
    retained_mask = ~part.dropped

    sums = frac.assignment_sums()
    bad = retained_mask & (sums < eps - 1e-9)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise RoundingError(
            f"retained client {j} has assignment mass {sums[j]:.3g} < eps={eps}"
        )

    keep = retained_mask[frac.pair_cli]
    fac = frac.pair_fac[keep]
    cli = frac.pair_cli[keep]
    x_hat = frac.x_values[keep]
    x_new = x_hat / sums[cli]

    factor = np.full(inst.n_facilities, -np.inf)
    live = x_hat > 1e-12
    np.maximum.at(factor, fac[live], 1.0 / sums[cli[live]])
    factor[np.isneginf(factor)] = 1.0  # facility serves no retained client
    y_new = np.minimum(1.0, frac.y * factor)

    dist = inst.distances()
    objective = float(inst.open_costs @ y_new + dist[fac, cli] @ x_new)

    new_sums = np.bincount(cli, weights=x_new, minlength=n)
    if np.any(np.abs(new_sums[retained_mask] - 1.0) > 1e-7):
        raise RoundingError("rescaled assignment does not sum to 1")
    if np.any(x_new > y_new[fac] + 1e-7):
        raise RoundingError("rescaled assignment exceeds facility opening")
    if objective > frac.objective_value / eps * (1.0 + 1e-6) + 1e-12:
        raise RoundingError(
            f"rescaled cost {objective:.6g} exceeds {frac.objective_value:.6g}/eps"
        )

    z_hat = frac.z.copy()
    z_hat[part.dropped] = 1.0
    return FractionalSolution(fac, cli, x_new, y_new, z_hat, objective)


def round_facility_location(
    inst: MetricInstance,
    part: PartitionedClients,
    rescaled: FractionalSolution,
    cfg: RoundingConfig,
) -> IntegralSolution:
    """Threshold the opening values and serve retained clients.

    Every facility whose opening value clears the threshold opens; if none
    does and a client needs serving, the facility with the largest opening
    value opens.  Each retained client is then served by its nearest open
    facility on the full metric, whatever pairs the LP was restricted to.
    """
    y = rescaled.y
    open_set = set(int(i) for i in np.flatnonzero(y >= cfg.open_threshold))
    if not open_set and not part.dropped.all():
        open_set.add(int(np.argmax(y)))
    return assign_nearest(inst, open_set, part.dropped)


def lpr_pipeline(
    inst: MetricInstance,
    budgets: OutlierBudgets,
    cfg: RoundingConfig,
    fairness: str,
    rounder=round_facility_location,
    chain: Optional[LpChain] = None,
) -> tuple[IntegralSolution, FractionalSolution]:
    """Full solve-partition-rescale-round pipeline.

    ``rounder`` is the facility-location subroutine applied after outlier
    removal; any algorithm with the signature of
    ``round_facility_location`` can be plugged in, the threshold heuristic
    being the default.  ``chain``, when given, solves the relaxation warm
    from its previous solve of ``inst`` at other budgets, or answers from
    its memo a budget vector it has solved before (see ``LpChain``).
    Returns the integral solution together with the optimal fractional
    solution so callers can report the LP bound without re-solving.
    """
    frac = solve_lp(build_flfo_lp(inst, budgets, fairness), chain=chain)
    part = identify_outliers(inst, frac, budgets, cfg.epsilon, fairness)
    rescaled = rescale(inst, frac, part, cfg.epsilon)
    sol = rounder(inst, part, rescaled, cfg)
    return sol, frac


def lpr_f(
    inst: MetricInstance, budgets: OutlierBudgets, cfg: RoundingConfig = RoundingConfig()
) -> IntegralSolution:
    """LP rounding with per-group outlier budgets."""
    return lpr_pipeline(inst, budgets, cfg, PER_GROUP)[0]


def lpr_nf(
    inst: MetricInstance, budgets: OutlierBudgets, cfg: RoundingConfig = RoundingConfig()
) -> IntegralSolution:
    """LP rounding against a single merged outlier budget."""
    return lpr_pipeline(inst, budgets, cfg, AGGREGATE)[0]
