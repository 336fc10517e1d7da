"""Dataset ingestion, preprocessing, facility selection, synthetic generator.

Real tables come in as CSV with one categorical group column and numeric
feature columns, get min-max normalized per column, subsampled, and paired
with facility candidates chosen by k-means.  The synthetic generator plants
a large tight in-group population and a small dispersed out-group so that
budget-blind outlier removal visibly concentrates on the out-group.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .instance import MetricInstance, _pair_sq_distances, _sq_distances, uniform_dmax


class DataError(ValueError):
    pass


class MissingColumnError(DataError):
    pass


class ParseError(DataError):
    pass


@dataclass(frozen=True)
class RawTable:
    """Numeric feature rows plus a group label per row."""

    features: np.ndarray
    groups: np.ndarray
    group_names: tuple[str, ...]
    columns: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return len(self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.group_names)


def load_csv(
    path: str,
    group_column: str,
    feature_columns: Optional[Sequence[str]] = None,
    delimiter: str = ",",
) -> RawTable:
    """Parse a headered CSV into features + group labels.

    ``feature_columns`` defaults to every column except the group column.
    Group labels are indexed in order of first appearance.  Non-numeric or
    missing feature cells raise ParseError naming the offending line and
    column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if group_column not in header:
            raise MissingColumnError(f"{path}: no column {group_column!r} in header")
        if feature_columns is None:
            feature_columns = [h for h in header if h != group_column]
        missing = [c for c in feature_columns if c not in header]
        if missing:
            raise MissingColumnError(f"{path}: columns not in header: {missing}")
        if not feature_columns:
            raise DataError(f"{path}: no feature columns left")
        feat_pos = [header.index(c) for c in feature_columns]
        group_pos = header.index(group_column)

        rows: list[list[float]] = []
        labels: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}")
            parsed = []
            for col, pos in zip(feature_columns, feat_pos):
                cell = row[pos].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {line_no}, column {col!r}: {cell!r} is not numeric"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(f"{path}: line {line_no}, column {col!r}: non-finite value")
                parsed.append(value)
            rows.append(parsed)
            labels.append(row[group_pos].strip())
    if not rows:
        raise ParseError(f"{path}: no data rows")

    seen: dict[str, int] = {}
    group_idx = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        group_idx.append(seen[lab])
    return RawTable(
        features=np.array(rows, dtype=float),
        groups=np.array(group_idx, dtype=np.int64),
        group_names=tuple(seen),
        columns=tuple(feature_columns),
    )


def normalize(table: RawTable) -> RawTable:
    """Min-max scale each feature column to [0, 1]; constant columns go to 0."""
    feats = table.features
    lo = feats.min(axis=0)
    span = feats.max(axis=0) - lo
    scaled = np.where(span > 0, (feats - lo) / np.where(span > 0, span, 1.0), 0.0)
    return RawTable(scaled, table.groups, table.group_names, table.columns)


def sample_clients(table: RawTable, n: int, seed: int) -> RawTable:
    """Uniform subsample without replacement, stable given the seed.

    Selected rows keep their original relative order.
    """
    if not 0 <= n <= table.n_rows:
        raise DataError(f"cannot sample {n} of {table.n_rows} rows")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(table.n_rows, size=n, replace=False))
    return RawTable(
        table.features[chosen], table.groups[chosen], table.group_names, table.columns
    )


# u, eta and the overflow margin of the screen's bound in ``_nearest_centers``
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_REACH_MAX = np.finfo(float).max / 16


def _nearest_centers(
    points: np.ndarray, lifted: np.ndarray, norms: np.ndarray, centers: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Each point's nearest center, equal to ``np.argmin(_sq_distances(points,
    centers, out), axis=1)`` (first index on ties), mostly without the kernel.

    ``lifted`` is ``points`` with a column of ones appended and ``norms`` the
    points' Euclidean norms.  One GEMM fills ``out`` with the screen
    ``S_c = |c|² - 2 p·c`` (the -2 is folded into the centers, which is
    exact; ``|p|²`` is the same for every center of a row, so it is left
    out), and ``a = argmin S``.  For any summation order, with or without FMA,
    a dot product errs by at most ``gamma_k |x|·|y|`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, §3.1), and the kernel's value
    ``D_c`` errs from the exact ``|p - c|²`` by at most ``gamma_{d+2} |p - c|²``.
    Together ``S_c + |p|²`` lies within ``(3d + 3)u R²`` of ``D_c``, plus at
    most one ``eta`` per underflowing operation, which ``tol = 8(d + 4)(u R² +
    eta)`` covers twice over.  So every center with ``D_c <= D_a``, the
    kernel's argmin included, has ``S_c <= S_a + 2 tol``.  Rows where only
    ``a`` passes take it; the others compute ``D_c`` of the passing centers
    with the kernel and take the smallest, first index on ties.  Rows whose
    ``R²`` is not finite or within 16x of overflow (below that nothing in the
    screen overflows) compute every ``D_c``.  The GEMM only preselects, so
    the result does not depend on the BLAS.
    """
    n, d = points.shape
    rows = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows fall back below
        sq = (centers * centers).sum(axis=1)
        np.dot(lifted, np.vstack([-2.0 * centers.T, sq]), out=out)
        labels = out.argmin(axis=1)
        reach = norms + np.sqrt(sq.max())
        reach *= reach
        tol = 8 * (d + 4) * (_UNIT_ROUNDOFF * reach + _SMALLEST_SUBNORMAL)
        cand = out <= (out[rows, labels] + 2 * tol)[:, None]
    cand[~(reach <= _REACH_MAX)] = True
    cand[rows, labels] = False
    settle = np.flatnonzero(cand.any(axis=1))
    if settle.size:
        cand[settle, labels[settle]] = True
        sub, cols = np.nonzero(cand[settle])
        exact = out[: settle.size]
        exact.fill(np.inf)
        exact[sub, cols] = _pair_sq_distances(points, centers, settle[sub], cols)
        labels[settle] = exact.argmin(axis=1)
    return labels


def _kmeans_pp(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((m, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = _sq_distances(points, centers[:1], np.empty((n, 1)))[:, 0]
    nearest = np.empty((n, 1))
    for c in range(1, m):
        total = d2.sum()
        if np.isinf(total):
            raise DataError("squared distances overflow in k-means++ seeding; rescale the features")
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:  # all remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        centers[c] = points[idx]
        d2 = np.minimum(d2, _sq_distances(points, centers[c:c + 1], nearest)[:, 0])
    return centers


def select_facilities_kmeans(
    points: np.ndarray,
    m: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> np.ndarray:
    """Lloyd's algorithm with greedy++ style seeding; returns exactly m centers.

    Iterates until centers move at most ``tol`` or ``max_iter`` rounds pass.
    An empty cluster is re-seeded at the point currently farthest from its
    assigned center (the farthest for the first empty cluster, the next
    farthest for the second, and so on), so the center count never
    collapses.

    The result is bitwise reproducible and equal to the plain numpy
    computation: every squared distance is summed over the coordinates in
    numpy's pairwise order (see ``_sq_distances``), and every center sums
    its cluster's points laid out as ``points[labels == c]`` lays them out
    (contiguous, in input order), so numpy adds them in the order ``mean``
    does: row by row, or pairwise when there is one coordinate.

    Each Lloyd assignment is screened with one GEMM, ``|c|² - 2 p·c``.  A
    rigorous per-row bound on its rounding error, valid for any BLAS order
    (``8(d + 4)(u R² + eta)``, see ``_nearest_centers``), keeps every center
    that could be nearest; only rows with more than one such center compute
    the exact squared distances, and only for those centers.  The labels are
    therefore the exact kernel's argmin bit for bit, and the output does not
    depend on the BLAS build or its threads.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if m > n:
        raise DataError(f"cannot place {m} centers on {n} points")
    if m == 0:
        raise DataError("need at least one center")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(points, m, rng)
    lifted = np.hstack([points, np.ones((n, 1))])
    norms = np.sqrt((points * points).sum(axis=1))
    screen = np.empty((n, m))
    for _ in range(max_iter):
        labels = _nearest_centers(points, lifted, norms, centers, screen)
        counts = np.bincount(labels, minlength=m)
        # each cluster's rows as one contiguous slice, in input order, so its
        # sum runs over the same layout as the boolean-mask selection
        members = points[np.argsort(labels, kind="stable")]
        new_centers = np.empty_like(centers)
        lo = 0
        for c, hi in enumerate(np.cumsum(counts).tolist()):
            if hi > lo:
                new_centers[c] = members[lo:hi].sum(axis=0) / counts[c]
            lo = hi
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            assigned_d2 = _pair_sq_distances(points, centers, np.arange(n), labels)
            farthest = np.argsort(-assigned_d2, kind="stable")[: empty.size]
            new_centers[empty] = points[farthest]
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift <= tol:
            break
    return centers


@dataclass(frozen=True)
class SyntheticConfig:
    """Two-group planted instance; normals are (mean, standard deviation)."""

    n_in: int = 500
    n_out: int = 50
    in_mean: float = 0.0
    in_sd: float = 10.0
    out_mean: float = 10.0
    out_sd: float = 20.0
    cost_near: float = 80.0
    cost_far: float = 40.0
    near_radius: float = 10.0
    dim: int = 2
    n_facilities: int = 100
    seed: int = 0

    def __post_init__(self):
        if min(self.n_in, self.n_out, self.n_facilities, self.dim) < 1:
            raise DataError("all synthetic counts must be positive")


def generate_synthetic(cfg: SyntheticConfig) -> tuple[MetricInstance, tuple[str, str]]:
    """Sample clients and facilities per the config.

    In-group clients and all facilities draw each coordinate from the
    in-group normal; out-group clients from the out-group normal.  A
    facility within ``near_radius`` of the origin (inclusive) costs
    ``cost_near``, anything farther costs ``cost_far``.
    """
    rng = np.random.default_rng(cfg.seed)
    in_pts = rng.normal(cfg.in_mean, cfg.in_sd, size=(cfg.n_in, cfg.dim))
    out_pts = rng.normal(cfg.out_mean, cfg.out_sd, size=(cfg.n_out, cfg.dim))
    fac_pts = rng.normal(cfg.in_mean, cfg.in_sd, size=(cfg.n_facilities, cfg.dim))
    norms = np.sqrt((fac_pts**2).sum(axis=1))
    costs = np.where(norms <= cfg.near_radius, cfg.cost_near, cfg.cost_far)
    coords = np.vstack([in_pts, out_pts])
    groups = np.concatenate([np.zeros(cfg.n_in, dtype=int), np.ones(cfg.n_out, dtype=int)])
    inst = MetricInstance(coords, groups, fac_pts, costs)
    return inst, ("in", "out")


def build_instance(table: RawTable, facility_coords: np.ndarray) -> MetricInstance:
    """Clients from a table plus explicit facility candidates, every facility
    costing the largest facility-client distance (``uniform_dmax``, the
    policy for real datasets), the instance's own matrix entry bit for bit.
    The instance keeps the matrix it was costed from."""
    costs = np.zeros(len(facility_coords))
    return uniform_dmax(MetricInstance(table.features, table.groups, facility_coords, costs))
