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

from .instance import MetricInstance


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


def _kmeans_pp(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((m, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, m):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:  # all remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
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
    assigned center, so the center count never collapses.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if m > n:
        raise DataError(f"cannot place {m} centers on {n} points")
    if m == 0:
        raise DataError("need at least one center")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(points, m, rng)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(d2, axis=1)
        new_centers = centers.copy()
        assigned_d2 = d2[np.arange(n), labels]
        taken: set[int] = set()
        for c in range(m):
            mask = labels == c
            if mask.any():
                new_centers[c] = points[mask].mean(axis=0)
            else:
                far_order = np.argsort(-assigned_d2, kind="stable")
                pick = next(int(q) for q in far_order if int(q) not in taken)
                taken.add(pick)
                new_centers[c] = points[pick]
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


def build_instance(
    table: RawTable,
    facility_coords: np.ndarray,
    facility_costs: Optional[np.ndarray] = None,
) -> MetricInstance:
    """Clients from a table plus explicit facility candidates.

    Without explicit costs, every facility costs the largest facility-client
    distance of the instance (the uniform policy used for real datasets).
    """
    facility_coords = np.asarray(facility_coords, dtype=float)
    if facility_costs is None:
        diff = facility_coords[:, None, :] - table.features[None, :, :]
        d_max = float(np.sqrt((diff**2).sum(axis=2)).max())
        facility_costs = np.full(len(facility_coords), d_max)
    return MetricInstance(table.features, table.groups, facility_coords, facility_costs)
