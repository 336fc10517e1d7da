"""Core problem representation shared by every solver in the package.

An instance is a set of clients (each tagged with a demographic group) and a
set of candidate facilities with opening costs, embedded in Euclidean space.
It is stored as read-only arrays: client and facility coordinates, a group
label per client, an opening cost per facility and, once pruned, the allowed
(facility, client) pairs as two client-major index arrays.  Solutions open a
subset of facilities, designate per-group outliers, and assign every
remaining client to its nearest open facility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Mapping, Optional

import numpy as np

# Pairwise computations run over row blocks whose temporaries stay near this
# size: a whole (rows x cols x dim) product is 21.6 MB at 4500x100x6 and,
# computed at once, sets the process's peak memory.  Every entry is computed
# as the whole product computes it, so blocking changes no bit of a result.
_BLOCK_BYTES = 1 << 20


def row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of ``range(n_rows)``, each about ``_BLOCK_BYTES``
    of temporaries when one row takes ``row_bytes``."""
    step = max(1, _BLOCK_BYTES // max(1, row_bytes))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


FACILITY_LOCATION = "facility_location"
K_MEDIAN = "k_median"


def _read_only(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MetricInstance:
    """Immutable clients + facilities with an l2 distance oracle.

    ``client_coords`` is n x d, ``groups`` holds one non-negative group label
    per client, ``facility_coords`` is m x d and ``open_costs`` holds one
    non-negative (possibly infinite) opening cost per facility.  The
    constructor copies every array and stores it read-only.

    ``pair_fac``/``pair_cli``, when present, restrict which (facility,
    client) assignments the LP may use: they are sorted client-major (by
    client, then facility) without repeats, and every client keeps at least
    one allowed facility.
    """

    client_coords: np.ndarray
    groups: np.ndarray
    facility_coords: np.ndarray
    open_costs: np.ndarray
    pair_fac: Optional[np.ndarray] = None
    pair_cli: Optional[np.ndarray] = None

    def __post_init__(self):
        clients = _read_only(self.client_coords, float)
        facilities = _read_only(self.facility_coords, float)
        if len(clients) == 0 or len(facilities) == 0:
            raise ValueError("need at least one client and one facility")
        if clients.ndim != 2 or facilities.ndim != 2 or clients.shape[1] < 1:
            raise ValueError("coordinates must be 2-D arrays with at least one column")
        if clients.shape[1] != facilities.shape[1]:
            raise ValueError(
                f"mixed point dimensions: {clients.shape[1]} and {facilities.shape[1]}"
            )
        if not (np.isfinite(clients).all() and np.isfinite(facilities).all()):
            raise ValueError("non-finite coordinate")
        n, m = len(clients), len(facilities)
        raw_groups = np.asarray(self.groups)
        groups = _read_only(raw_groups, np.int64)
        if groups.shape != (n,) or not np.array_equal(groups, raw_groups):
            raise ValueError("need one integer group label per client")
        if groups.min() < 0:
            raise ValueError("group index must be non-negative")
        costs = _read_only(self.open_costs, float)
        if costs.shape != (m,):
            raise ValueError("need one opening cost per facility")
        if not (costs >= 0.0).all():
            raise ValueError("opening cost must be non-negative")
        for name, value in (("client_coords", clients), ("groups", groups),
                            ("facility_coords", facilities), ("open_costs", costs)):
            object.__setattr__(self, name, value)
        if (self.pair_fac is None) != (self.pair_cli is None):
            raise ValueError("pair_fac and pair_cli must be given together")
        if self.pair_fac is None:
            return
        fac = _read_only(self.pair_fac, np.int64)
        cli = _read_only(self.pair_cli, np.int64)
        if fac.ndim != 1 or fac.shape != cli.shape:
            raise ValueError("pair_fac and pair_cli must be 1-D arrays of equal length")
        bad = (fac < 0) | (fac >= m) | (cli < 0) | (cli >= n)
        if bad.any():
            p = int(np.argmax(bad))
            raise ValueError(f"pair ({fac[p]}, {cli[p]}) out of range")
        if np.any(np.diff(cli * m + fac) <= 0):
            raise ValueError("pairs must be sorted client-major without repeats")
        missing = np.flatnonzero(np.bincount(cli, minlength=n) == 0)
        if missing.size:
            raise ValueError(f"clients with no allowed facility: {missing.tolist()}")
        object.__setattr__(self, "pair_fac", fac)
        object.__setattr__(self, "pair_cli", cli)

    def __reduce__(self):
        # unpickled copies (a sweep worker's) go through the constructor too,
        # so they are validated and read-only; cached values are recomputed
        fields = (self.client_coords, self.groups, self.facility_coords, self.open_costs,
                  self.pair_fac, self.pair_cli)
        return MetricInstance, fields

    @property
    def n_clients(self) -> int:
        return len(self.client_coords)

    @property
    def n_facilities(self) -> int:
        return len(self.facility_coords)

    @property
    def dim(self) -> int:
        return self.client_coords.shape[1]

    @cached_property
    def n_groups(self) -> int:
        return int(self.groups.max()) + 1

    @cached_property
    def group_members(self) -> tuple[np.ndarray, ...]:
        return tuple(np.flatnonzero(self.groups == g) for g in range(self.n_groups))

    @cached_property
    def _distances(self) -> np.ndarray:
        fac, cli = self.facility_coords, self.client_coords
        dist = np.empty((len(fac), len(cli)))
        for rows in row_blocks(len(fac), cli.nbytes):
            diff = fac[rows, None, :] - cli[None, :, :]
            np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=dist[rows])
        dist.flags.writeable = False
        return dist

    def distances(self) -> np.ndarray:
        """Full (facilities x clients) distance matrix, computed once."""
        return self._distances

    def distance(self, facility: int, client: int) -> float:
        return float(self._distances[facility, client])

    @cached_property
    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Allowed (facility, client) pairs as parallel index arrays.

        Sorted client-major so that all pairs of one client are contiguous.
        Defaults to the full product when no pruning has been applied.
        """
        if self.pair_fac is not None:
            return self.pair_fac, self.pair_cli
        cli = np.repeat(np.arange(self.n_clients), self.n_facilities)
        fac = np.tile(np.arange(self.n_facilities), self.n_clients)
        return fac, cli

    @cached_property
    def allowed_pairs(self) -> Optional[frozenset[tuple[int, int]]]:
        """The allowed pairs as a set of (facility, client) tuples, derived
        from ``pair_fac``/``pair_cli``; None when the instance is unpruned."""
        if self.pair_fac is None:
            return None
        return frozenset(zip(self.pair_fac.tolist(), self.pair_cli.tolist()))


@dataclass(frozen=True)
class OutlierBudgets:
    """Per-group caps on how many clients may be dropped as outliers."""

    per_group: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_group", tuple(int(v) for v in self.per_group))
        if any(v < 0 for v in self.per_group):
            raise ValueError("outlier budgets must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.per_group)

    def validate_for(self, inst: MetricInstance) -> None:
        if len(self.per_group) != inst.n_groups:
            raise ValueError(
                f"budget vector has {len(self.per_group)} entries, instance has "
                f"{inst.n_groups} groups"
            )
        for g, cap in enumerate(self.per_group):
            size = len(inst.group_members[g])
            if cap > size:
                raise ValueError(f"budget {cap} for group {g} exceeds its {size} clients")


@dataclass(frozen=True)
class IntegralSolution:
    """An integral solution: open facilities, per-group outliers, assignment.

    Every non-outlier client is assigned to its nearest open facility (ties
    broken toward the lowest facility index); cost fields are the sums the
    assignment induces.
    """

    open: frozenset[int]
    outliers: tuple[frozenset[int], ...]
    assignment: Mapping[int, int]
    facility_cost: float
    connection_cost: float

    @property
    def total_cost(self) -> float:
        return self.facility_cost + self.connection_cost

    def outlier_counts(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.outliers)


def nearest_rows(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's minimum over the rows of ``sub`` and the first row
    holding it.

    With the open facilities' distance rows in ascending index order, this
    is every client's nearest open distance and, on ties, the position of
    the lowest facility index.
    """
    low = sub.min(axis=0)
    first = np.zeros(sub.shape[1], dtype=np.int64)
    for r in range(len(sub) - 1, -1, -1):  # the lowest row holding the minimum is written last
        first[sub[r] == low] = r
    return low, first


def assign_nearest(
    inst: MetricInstance,
    open_facilities: Iterable[int],
    dropped: Iterable[int],
) -> IntegralSolution:
    """Build a valid IntegralSolution from an open set and the dropped clients.

    ``dropped`` is one flat collection of client indices; each group's
    outlier set is the dropped clients ``inst.groups`` files under it.  An
    index outside ``[0, n_clients)`` raises ``ValueError``.
    """
    n = inst.n_clients
    open_set = frozenset(int(i) for i in open_facilities)
    idx = np.fromiter(dropped, dtype=np.int64)
    stray = idx[(idx < 0) | (idx >= n)]
    if stray.size:
        raise ValueError(f"dropped index {stray[0]} names no client (there are {n})")
    is_dropped = np.zeros(n, dtype=bool)
    is_dropped[idx] = True
    outliers = tuple(frozenset(mem[is_dropped[mem]].tolist()) for mem in inst.group_members)
    served = np.flatnonzero(~is_dropped)
    facility_cost = float(inst.open_costs[sorted(open_set)].sum()) if open_set else 0.0
    if not served.size:
        return IntegralSolution(open_set, outliers, {}, facility_cost, 0.0)
    if not open_set:
        raise ValueError("no open facility but some clients are not outliers")
    rows = np.array(sorted(open_set), dtype=np.int64)
    dist, pos = nearest_rows(inst.distances()[rows])
    assignment = dict(zip(served.tolist(), rows[pos[served]].tolist()))
    connection = float(np.cumsum(dist[served])[-1])  # summed left to right
    return IntegralSolution(open_set, outliers, assignment, facility_cost, connection)


def solution_cost(inst: MetricInstance, sol: IntegralSolution, objective: str) -> float:
    """Recompute a solution's objective value from first principles.

    ``facility_location`` counts opening plus connection cost; ``k_median``
    counts connection cost only.  Raises if any client is assigned to a
    facility outside the open set.
    """
    if objective not in (FACILITY_LOCATION, K_MEDIAN):
        raise ValueError(f"unknown objective {objective!r}")
    size = len(sol.assignment)
    clients = np.fromiter(sol.assignment.keys(), dtype=np.int64, count=size)
    facilities = np.fromiter(sol.assignment.values(), dtype=np.int64, count=size)
    closed = np.flatnonzero(~np.isin(facilities, list(sol.open)))
    if closed.size:
        p = closed[0]
        raise ValueError(f"client {clients[p]} assigned to closed facility {facilities[p]}")
    # left to right in the assignment's order
    connection = float(np.cumsum(inst.distances()[facilities, clients])[-1]) if size else 0.0
    if objective == K_MEDIAN:
        return connection
    facility = float(inst.open_costs[sorted(sol.open)].sum()) if sol.open else 0.0
    return facility + connection


def unfairness(budgets: OutlierBudgets, sol: IntegralSolution) -> float:
    """max(1, max_g used_g / allowed_g); +inf if a zero budget is exceeded."""
    worst = 1.0
    for cap, used_set in zip(budgets.per_group, sol.outliers):
        used = len(used_set)
        if used == 0:
            continue
        if cap == 0:
            return math.inf
        worst = max(worst, used / cap)
    return worst


def prune_pairs(inst: MetricInstance) -> MetricInstance:
    """Restrict assignment pairs to distances strictly below the median.

    The median is taken over the full facility-by-client distance multiset.
    A client whose every pair would be pruned keeps its single nearest
    facility (lowest index on ties) so downstream LPs stay feasible.
    """
    if inst.pair_fac is not None:
        raise ValueError("instance already has allowed pairs")
    dist = inst.distances()
    median = float(np.median(dist))
    keep = dist < median
    stranded = np.flatnonzero(~keep.any(axis=0))
    nearest = np.argmin(dist[:, stranded], axis=0) if stranded.size else np.empty(0, int)
    keep[nearest, stranded] = True
    cli, fac = np.nonzero(keep.T)  # client-major
    return replace(inst, pair_fac=fac, pair_cli=cli)
