"""Core problem representation shared by every solver in the package.

An instance is a set of clients (each tagged with a demographic group) and a
set of candidate facilities with opening costs, embedded in Euclidean space.
It is stored as read-only arrays: client and facility coordinates, a group
label per client, an opening cost per facility and a ``pruned`` flag.  A
pruned instance lets the LP use only ``prune_pairs``' below-median
(facility, client) pairs, which ``pair_arrays`` computes when they are first
read, so a run that builds no LP never builds them.  A solution is an open
set of facilities and a read-only mask of the dropped clients: every other
client is served by its nearest open facility, computed only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

import numpy as np

# Row-blocked scans keep their temporaries near this size; every entry is
# computed as the whole computation computes it, so no bit of a result changes.
_BLOCK_BYTES = 1 << 20


def row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of ``range(n_rows)``, each about ``_BLOCK_BYTES``
    of temporaries when one row takes ``row_bytes``."""
    step = max(1, _BLOCK_BYTES // max(1, row_bytes))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


# Rows of one output block of ``_sq_distances``: about this many bytes, so the
# block and its running terms stay in cache while every coordinate passes.
_KERNEL_BLOCK_BYTES = 1 << 18


def _square_diff(points: np.ndarray, centers_t: np.ndarray, k: int, out: np.ndarray) -> None:
    np.subtract(points[:, k, None], centers_t[k], out=out)
    np.multiply(out, out, out=out)


def _coordinate_sum(
    points: np.ndarray, centers_t: np.ndarray, lo: int, count: int, out: np.ndarray, term: np.ndarray
) -> None:
    """``out`` = the squared differences over coordinates ``lo .. lo+count-1``,
    added in the order numpy's pairwise summation adds a contiguous run."""
    if count < 8:
        _square_diff(points, centers_t, lo, out)
        for k in range(lo + 1, lo + count):
            _square_diff(points, centers_t, k, term)
            out += term
        return
    if count > 128:
        half = count // 2
        half -= half % 8
        _coordinate_sum(points, centers_t, lo, half, out, term)
        right = np.empty_like(out)
        _coordinate_sum(points, centers_t, lo + half, count - half, right, term)
        out += right
        return
    # eight running sums over strides of 8, combined as a tree, then the tail
    partial = [out] + [np.empty_like(out) for _ in range(7)]
    for j in range(8):
        _square_diff(points, centers_t, lo + j, partial[j])
    whole = count - count % 8
    for i in range(8, whole, 8):
        for j in range(8):
            _square_diff(points, centers_t, lo + i + j, term)
            partial[j] += term
    for step in (1, 2, 4):
        for j in range(0, 8, 2 * step):
            partial[j] += partial[j + step]
    for k in range(lo + whole, lo + count):
        _square_diff(points, centers_t, k, term)
        out += term


def _sq_distances(points: np.ndarray, centers: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the (n, m) ``out`` with squared distances from every point to
    every center, bit for bit as ``((points[:, None, :] - centers[None]) **
    2).sum(axis=2)`` computes them, without that (n, m, d) temporary.

    numpy sums a contiguous run of ``d`` values in a fixed order: one by one
    below 8; from 8 to 128 in eight partial sums (coordinate ``k`` goes to
    sum ``k % 8`` for the first ``d - d % 8`` coordinates) combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the rest one by one; above
    128 as the sum of both halves, split at half the run rounded down to a
    multiple of 8.  The kernel adds whole (rows, m) blocks one coordinate
    at a time in that same order.  Swapping ``points`` and ``centers``
    transposes the result bit for bit; k-means and ``MetricInstance`` share it.
    """
    n, m = out.shape
    centers_t = np.ascontiguousarray(centers.T)
    step = max(1, _KERNEL_BLOCK_BYTES // (8 * max(1, m)))
    term = np.empty((min(step, n), m))
    for lo in range(0, n, step):
        block = out[lo:lo + step]
        _coordinate_sum(points[lo:lo + step], centers_t, 0, points.shape[1], block, term[: len(block)])
    return out


def _pair_sq_distances(points: np.ndarray, centers: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared distances from ``points[rows[i]]`` to ``centers[cols[i]]``, each
    bit for bit as ``_sq_distances`` gives it: the same coordinate order, run
    on (pairs, 1) columns in blocks of about ``_KERNEL_BLOCK_BYTES``."""
    d = points.shape[1]
    out = np.empty((len(rows), 1))
    step = max(1, _KERNEL_BLOCK_BYTES // (8 * d))
    term = np.empty((min(step, len(rows)), 1))
    for lo in range(0, len(rows), step):
        pick, block = slice(lo, lo + step), out[lo:lo + step]
        # centers_t[k] is then a (pairs, 1) column, one center per pair
        centers_t = centers[cols[pick]].T[:, :, None]
        _coordinate_sum(points[rows[pick]], centers_t, 0, d, block, term[: len(block)])
    return out[:, 0]


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

    ``pruned`` (a bool) restricts the (facility, client) assignments the LP
    may use to ``prune_pairs``' rule; ``pair_arrays`` holds them.
    """

    client_coords: np.ndarray
    groups: np.ndarray
    facility_coords: np.ndarray
    open_costs: np.ndarray
    pruned: bool = False

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
        if not isinstance(self.pruned, (bool, np.bool_)):
            raise ValueError(f"pruned={self.pruned!r} is not a bool")
        object.__setattr__(self, "pruned", bool(self.pruned))

    def __reduce__(self):
        # unpickled copies (a sweep worker's) go through the constructor too,
        # so they are validated and read-only; cached values, the pairs of a
        # pruned instance among them, are recomputed
        return MetricInstance, (self.client_coords, self.groups, self.facility_coords,
                                self.open_costs, self.pruned)

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
        dist = np.empty((self.n_facilities, self.n_clients))
        np.sqrt(_sq_distances(self.facility_coords, self.client_coords, dist), out=dist)
        dist.flags.writeable = False
        return dist

    def distances(self) -> np.ndarray:
        """Full (facilities x clients) distance matrix, computed once by
        ``_sq_distances``: bit for bit ``np.sqrt(((f[:, None] - c[None]) ** 2).sum(axis=2))``."""
        return self._distances

    def distance(self, facility: int, client: int) -> float:
        return float(self._distances[facility, client])

    @cached_property
    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Allowed (facility, client) pairs as parallel index arrays, sorted
        client-major so that all pairs of one client are contiguous.

        The full product on an unpruned instance.  A pruned one computes its
        below-median pairs (``prune_pairs``) on the first read, as read-only
        arrays.
        """
        if self.pruned:
            return _below_median_pairs(self.distances())
        cli = np.repeat(np.arange(self.n_clients), self.n_facilities)
        fac = np.tile(np.arange(self.n_facilities), self.n_clients)
        return fac, cli

    @cached_property
    def allowed_pairs(self) -> Optional[frozenset[tuple[int, int]]]:
        """A pruned instance's ``pair_arrays`` as a set of (facility, client)
        tuples; None when the instance is unpruned.  Only the benchmark
        (``perfbench/``) reads it."""
        if not self.pruned:
            return None
        fac, cli = self.pair_arrays
        return frozenset(zip(fac.tolist(), cli.tolist()))


@dataclass(frozen=True)
class OutlierBudgets:
    """Per-group caps on how many clients may be dropped as outliers."""

    per_group: tuple[int, ...]

    def __post_init__(self):
        caps = tuple(self.per_group)
        for g, v in enumerate(caps):
            if not _is_integer(v):
                raise ValueError(f"budget {v!r} for group {g} is not an integer")
        object.__setattr__(self, "per_group", tuple(int(v) for v in caps))
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


@dataclass(frozen=True, eq=False)
class IntegralSolution:
    """An integral solution of ``inst`` (held, not copied): open facilities
    and ``dropped``, a read-only mask with one bool per client.  Every other
    client is served by its nearest open facility (ties broken toward the
    lowest facility index); cost fields are the sums that service induces.
    """

    inst: MetricInstance = field(repr=False)
    open: frozenset[int]
    dropped: np.ndarray
    facility_cost: float
    connection_cost: float

    @property
    def total_cost(self) -> float:
        return self.facility_cost + self.connection_cost

    def outlier_counts(self) -> tuple[int, ...]:
        """Each group's dropped clients, counted by one ``bincount``."""
        return tuple(np.bincount(self.inst.groups[self.dropped], minlength=self.inst.n_groups).tolist())

    @property
    def assignment(self) -> Mapping[int, int]:
        """Each served client's nearest open facility (``_open_argmin``),
        computed on read, as a read-only mapping in client order.  Only the
        benchmark (``perfbench/``) reads it."""
        if self.dropped.all():
            return MappingProxyType({})
        nearest = np.concatenate([facility for facility, _ in _open_argmin(self.inst, self.open)])
        served = np.flatnonzero(~self.dropped)
        return MappingProxyType(dict(zip(served.tolist(), nearest[served].tolist())))


def nearest_rows(dist: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's minimum over ``dist[rows]`` and the row holding it,
    without copying those rows.

    A running minimum in the order of ``rows`` (non-empty): a later row
    takes a column only when strictly nearer, so with ``rows`` ascending a
    tie goes to the lowest row.
    """
    low = dist[rows[0]].copy()
    first = np.full(dist.shape[1], rows[0], dtype=np.int64)
    closer = np.empty(dist.shape[1], dtype=bool)
    for r in rows[1:]:
        np.less(dist[r], low, out=closer)
        np.copyto(low, dist[r], where=closer)
        first[closer] = r
    return low, first


def _is_integer(v) -> bool:
    """True for Python and numpy integers; False for a bool, which would
    read as 0/1, a float, which would be truncated, and anything else."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, (bool, np.bool_))


def _open_index(i, m: int) -> int:
    """``i`` checked to be a facility index in ``range(m)``.  A non-integer
    (see ``_is_integer``) or an integer outside the range raises
    ``ValueError`` naming it."""
    if not _is_integer(i):
        raise ValueError(f"open facility {i} is not an integer index")
    if not 0 <= i < m:
        raise ValueError(f"open index {i} names no facility (there are {m})")
    return int(i)


def check_total_budget(inst: MetricInstance, total_budget) -> int:
    """The non-fair algorithms' one outlier budget, checked to be an integer
    (see ``_is_integer``) in ``[0, n_clients]``; ``ValueError`` otherwise."""
    if not _is_integer(total_budget):
        raise ValueError(f"total budget {total_budget!r} is not an integer")
    if not 0 <= total_budget <= inst.n_clients:
        raise ValueError("total budget out of range")
    return int(total_budget)


def check_k(inst: MetricInstance, k) -> int:
    """The k-median algorithms' facility count, checked to be an integer
    (see ``_is_integer``) in ``[1, n_facilities]``; ``ValueError`` otherwise."""
    if not _is_integer(k):
        raise ValueError(f"k={k!r} is not an integer")
    if not 1 <= k <= inst.n_facilities:
        raise ValueError(f"k={k} outside [1, {inst.n_facilities}]")
    return int(k)


def _client_mask(inst: MetricInstance, mask) -> np.ndarray:
    """``mask`` as an array, checked to be one bool per client; ``ValueError`` otherwise."""
    arr = np.asarray(mask)
    if arr.dtype != bool or arr.shape != (inst.n_clients,):
        raise ValueError(f"dropped clients must be one bool per client ({inst.n_clients}), "
                         f"not {arr.dtype} of shape {arr.shape}")
    return arr


def _open_argmin(inst: MetricInstance, open_set: Iterable[int]):
    """Yield each client's nearest facility of the non-empty ``open_set``
    (ties to the lowest index) and its distance, by a column-wise argmin over
    the open rows, per block of columns whose temporaries fit ``_BLOCK_BYTES``."""
    rows = np.array(sorted(open_set), dtype=np.int64)
    dist = inst.distances()
    # per column: its entries twice (argmin copies the block), argmin, facility, index, distance
    for cols in row_blocks(inst.n_clients, 8 * (2 * len(rows) + 4)):
        block = dist[rows, cols]
        best = block.argmin(axis=0)
        yield rows[best], block[best, np.arange(len(best))]


def assign_nearest(
    inst: MetricInstance,
    open_facilities: Iterable[int],
    dropped: np.ndarray,
) -> IntegralSolution:
    """Build a valid IntegralSolution from an open set and the dropped clients.

    ``dropped`` is a bool mask with one entry per client; the solution keeps
    a read-only copy of it, and an array of any other dtype or shape raises
    ``ValueError``.  ``open_facilities`` holds integer facility indices; a
    float or bool entry, or an index outside ``[0, n_facilities)``, raises
    ``ValueError``.
    """
    dropped = _read_only(_client_mask(inst, dropped), bool)
    open_set = frozenset(_open_index(i, inst.n_facilities) for i in open_facilities)
    facility_cost = float(inst.open_costs[sorted(open_set)].sum()) if open_set else 0.0
    if dropped.all():
        return IntegralSolution(inst, open_set, dropped, facility_cost, 0.0)
    if not open_set:
        raise ValueError("no open facility but some clients are not outliers")
    is_open = np.isin(np.arange(inst.n_facilities), list(open_set))
    dist = inst.distances().min(axis=0, where=is_open[:, None], initial=np.inf)
    connection = float(np.cumsum(dist[~dropped])[-1])  # summed left to right
    return IntegralSolution(inst, open_set, dropped, facility_cost, connection)


def solution_cost(inst: MetricInstance, sol: IntegralSolution, objective: str) -> float:
    """Recompute a solution's objective value from its open set and dropped
    clients: ``facility_location`` counts opening plus connection cost,
    ``k_median`` connection cost only.  Each served client's nearest open
    facility is found again by ``_open_argmin``, independently of
    ``assign_nearest``'s masked minimum.  Raises ``ValueError`` for an open
    facility out of range, a ``sol.dropped`` that is not one bool per
    client, or served clients with no facility open."""
    if objective not in (FACILITY_LOCATION, K_MEDIAN):
        raise ValueError(f"unknown objective {objective!r}")
    stray = sorted(i for i in sol.open if not 0 <= i < inst.n_facilities)
    if stray:
        raise ValueError(f"open index {stray[0]} names no facility (there are {inst.n_facilities})")
    served = ~_client_mask(inst, sol.dropped)
    connection = 0.0
    if served.any():
        if not sol.open:
            raise ValueError("no open facility but some clients are not outliers")
        near = np.concatenate([distance for _, distance in _open_argmin(inst, sol.open)])
        connection = float(np.cumsum(near[served])[-1])  # left to right
    if objective == K_MEDIAN:
        return connection
    facility = float(inst.open_costs[sorted(sol.open)].sum()) if sol.open else 0.0
    return facility + connection


def unfairness(budgets: OutlierBudgets, sol: IntegralSolution) -> float:
    """max(1, max_g used_g / allowed_g); +inf if a zero budget is exceeded."""
    worst = 1.0
    for cap, used in zip(budgets.per_group, sol.outlier_counts()):
        if used == 0:
            continue
        if cap == 0:
            return math.inf
        worst = max(worst, used / cap)
    return worst


def same_points(inst: MetricInstance, **changes) -> MetricInstance:
    """``replace(inst, **changes)`` for changes that keep the coordinates.

    The copy takes ``inst``'s distance matrix (computing it if need be)
    instead of recomputing the same bits.  A pickled copy still computes
    its own (see ``MetricInstance.__reduce__``).
    """
    copy = replace(inst, **changes)
    vars(copy)["_distances"] = inst.distances()  # the cached_property's slot
    return copy


def uniform_dmax(inst: MetricInstance) -> MetricInstance:
    """``inst`` with every facility's opening cost the largest entry of its
    distance matrix, which the copy shares (``same_points``)."""
    return same_points(inst, open_costs=np.full(inst.n_facilities, inst.distances().max()))


def _below_median_pairs(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``prune_pairs``' rule on the distance matrix: read-only client-major
    ``(fac, cli)`` index arrays."""
    median = float(np.median(dist))
    keep = dist < median
    stranded = np.flatnonzero(~keep.any(axis=0))
    nearest = np.argmin(dist[:, stranded], axis=0) if stranded.size else np.empty(0, int)
    keep[nearest, stranded] = True
    cli, fac = (np.ascontiguousarray(idx) for idx in np.nonzero(keep.T))  # client-major
    fac.flags.writeable = cli.flags.writeable = False
    return fac, cli


def prune_pairs(inst: MetricInstance) -> MetricInstance:
    """Restrict assignment pairs to distances strictly below the median.

    The median is taken over the full facility-by-client distance multiset.
    A client whose every pair would be pruned keeps its single nearest
    facility (lowest index on ties) so downstream LPs stay feasible.  The
    pruned instance shares ``inst``'s distance matrix (``same_points``) and
    computes its pairs when they are first read (``pair_arrays``).
    """
    if inst.pruned:
        raise ValueError("instance already has allowed pairs")
    return same_points(inst, pruned=True)
