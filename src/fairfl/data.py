"""Dataset ingestion, preprocessing, facility selection, synthetic generator.

Real tables come in as CSV with one categorical group column and numeric
feature columns, get min-max normalized per column, subsampled, and paired
with facility candidates chosen by k-means.  numpy's C reader parses a
table's data lines; a file it refuses goes through ``csv.reader`` and
``float()``, which read every file it accepts to the same table.  The
synthetic generator plants a large tight in-group population and a small
dispersed out-group so that budget-blind outlier removal visibly
concentrates on the out-group.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .instance import MetricInstance, _pair_sq_distances, _sq_distances, row_blocks, uniform_dmax


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
    Group labels are indexed in order of first appearance.  The file is read
    as UTF-8, and a leading byte-order mark is dropped.  A header that names
    the group column or a read feature column twice raises DataError, and
    so does a feature column named twice in ``feature_columns``.
    Non-numeric, missing or non-finite feature cells (``nan``, ``inf``, or a
    value such as ``1e309`` that overflows) raise ParseError naming the first
    offending column and the file line on which its record starts.

    The header goes through ``csv.reader``.  When it fills one line of a
    seekable file, numpy's C reader (``np.loadtxt``, see ``_read_fast``)
    parses every data line in one call.  It reads a subset of what
    ``float()`` reads, to the same value, and refuses any quote character,
    so a table it returns is the one ``csv.reader`` and ``float()`` give.
    Any other file goes through the Python loop below, which builds the
    table or raises the error: each cell is parsed by one ``float()``, which
    ignores surrounding whitespace, rows of blank cells are skipped, and one
    ``np.isfinite`` checks the whole array; the offending cell is looked up
    only when a check fails.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
        for name in [group_column, *feature_columns]:
            if header.count(name) > 1:
                raise DataError(f"{path}: column {name!r} appears more than once in header")
            if feature_columns.count(name) > 1:
                raise DataError(f"{path}: feature column {name!r} is named more than once")
        feat_pos = [header.index(c) for c in feature_columns]
        group_pos = header.index(group_column)
        if reader.line_num == 1 and fh.seekable() and delimiter not in "\r\n" and group_pos not in feat_pos:
            read = _read_fast(path, delimiter, len(header), feat_pos, group_pos)
            if read is not None:
                return RawTable(*read, columns=tuple(feature_columns))

        rows: list[list[float]] = []
        labels: list[str] = []
        starts: list[int] = []  # the line each row starts on
        end = reader.line_num  # the last line read: a quoted cell may hold line breaks
        for row in reader:
            line_no, end = end + 1, reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}")
            try:
                rows.append([float(row[pos]) for pos in feat_pos])
            except ValueError:
                # a non-finite cell on an earlier line comes first
                _require_finite(path, np.array(rows).reshape(-1, len(feat_pos)), starts, feature_columns)
                raise _cell_error(path, line_no, row, feature_columns, feat_pos) from None
            starts.append(line_no)
            labels.append(row[group_pos].strip())
    if not rows:
        raise ParseError(f"{path}: no data rows")
    features = np.array(rows, dtype=float)
    _require_finite(path, features, starts, feature_columns)

    seen: dict[str, int] = {}
    group_idx = []
    for lab in labels:
        if lab not in seen:
            seen[lab] = len(seen)
        group_idx.append(seen[lab])
    return RawTable(
        features=features,
        groups=np.array(group_idx, dtype=np.int64),
        group_names=tuple(seen),
        columns=tuple(feature_columns),
    )


def _read_fast(
    path: str, delimiter: str, width: int, feat_pos: list[int], group_pos: int
) -> Optional[tuple[np.ndarray, np.ndarray, tuple[str, ...]]]:
    """Features, group indices and group names of the data lines after a
    one-line header, by one ``np.loadtxt`` call, or None when the C reader
    refuses the file or its table is not one ``load_csv`` returns as read:
    a width other than the header's, a non-finite cell, no data rows, or a
    quote character, which ``csv.reader`` may split elsewhere.  Unread
    columns pass through a constant converter, not ``usecols``, so a row of
    any other width is refused."""
    seen: dict[str, int] = {}

    def group_index(cell: str) -> int:
        if '"' in cell:
            raise ValueError("a quoted cell")
        return seen.setdefault(cell.strip(), len(seen))

    def unread(cell: str) -> float:
        if '"' in cell:
            raise ValueError("a quoted cell")
        return 0.0

    converters = {pos: unread for pos in range(width) if pos not in feat_pos}
    converters[group_pos] = group_index
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy warns when there are no data rows
            cells = np.loadtxt(path, delimiter=delimiter, comments=None, skiprows=1, converters=converters,
                               ndmin=2, encoding="utf-8-sig")
    except ValueError:
        return None
    if not len(cells) or cells.shape[1] != width:
        return None
    features = cells[:, feat_pos]
    if not np.isfinite(features).all():
        return None
    return features, cells[:, group_pos].astype(np.int64), tuple(seen)


def _require_finite(path: str, features: np.ndarray, starts: list[int], columns: Sequence[str]) -> None:
    """Raise for the first non-finite cell; data row ``i`` starts on line
    ``starts[i]``."""
    finite = np.isfinite(features)
    if not finite.all():
        i, k = np.argwhere(~finite)[0]
        raise ParseError(f"{path}: line {starts[i]}, column {columns[k]!r}: non-finite value")


def _cell_error(path: str, line_no: int, row: list[str], columns: Sequence[str], positions: list[int]) -> ParseError:
    """The error for the first cell of ``row`` that is not a finite number."""
    for col, pos in zip(columns, positions):
        cell = row[pos].strip()
        try:
            if math.isfinite(float(cell)):
                continue
        except ValueError:
            return ParseError(f"{path}: line {line_no}, column {col!r}: {cell!r} is not numeric")
        return ParseError(f"{path}: line {line_no}, column {col!r}: non-finite value")
    raise AssertionError("a row that failed to parse has no bad cell")


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


# u, eta and the overflow margin of the screen's bound in ``_Assignment``
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_REACH_MAX = np.finfo(float).max / 16


def _kernel_argmin(points: np.ndarray, centers: np.ndarray, rows: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Each row's nearest center among those ``cand[i]`` marks for
    ``points[rows[i]]``, by the exact kernel, first index on ties."""
    sub, cols = np.nonzero(cand)
    exact = np.full(cand.shape, np.inf)
    exact[sub, cols] = _pair_sq_distances(points, centers, rows[sub], cols)
    return exact.argmin(axis=1)


class _Assignment:
    """Each point's nearest center, carried across Lloyd iterations: after
    every ``update``, ``labels`` equals ``np.argmin(_sq_distances(points,
    centers, out), axis=1)`` (first index on ties), found mostly without the
    kernel.

    A GEMM of ``lifted`` (the points with a column of ones appended) gives
    the screen ``S_c = |c|² - 2 p·c`` (the -2 is folded into the centers,
    which is exact; ``|p|²`` is the same for every center of a row, so it is
    left out).  For any summation order, with or without FMA, a dot product
    errs by at most ``gamma_k |x|·|y|`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, §3.1), and the kernel's value ``D_c`` errs
    from the exact ``|p - c|²`` by at most ``gamma_{d+2} |p - c|²``.
    Together ``S_c + |p|²`` lies within ``(3d + 3)u R²`` of ``D_c``, ``R =
    |p| + max |c|``, plus at most one ``eta`` per underflowing operation,
    which ``tol = 8(d + 4)(u R² + eta)`` covers twice over.  So every center
    with ``D_c <= D_a``, the kernel's argmin included, has ``S_c <= S_a + 2
    tol`` for any screen value ``S_a``.  Rows where only the screen's argmin
    passes take it and are *settled*; the others compute ``D_c`` of the
    passing centers with the kernel and take the smallest, first index on
    ties.  Rows whose ``R²`` is not finite or within 16x of overflow (below
    that nothing in the screen overflows) compute every ``D_c``.  The GEMM
    only preselects, so the result does not depend on the BLAS.

    ``moved`` marks the centers whose bytes changed since the last update
    (all of them on the first).  A row is screened against every center when
    it is not settled, its label moved, or its bound is near overflow.  Every
    other row was settled with ``D_c > D_a`` for each ``c != a``, and a
    center that did not move keeps its ``D_c``, so only a moved center can
    now be as near as ``a``: such a row compares the moved centers alone
    with its stored ``S_a`` (``values``).  That value is still a GEMM value
    of the same pair, and ``R`` bounds its error as before, since ``a`` is
    one of the current centers.  Rows with no moved center in range keep
    ``a``; the others take the screen over ``a`` and the moved centers.
    """

    def __init__(self, points: np.ndarray):
        n = len(points)
        self.points = points
        self.lifted = np.hstack([points, np.ones((n, 1))])
        self.norms = np.sqrt((points * points).sum(axis=1))
        self.labels = np.zeros(n, dtype=np.intp)
        self.values = np.empty(n)
        self.settled = np.zeros(n, dtype=bool)

    def update(self, centers: np.ndarray, moved: np.ndarray) -> np.ndarray:
        d = self.points.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):  # wide rows compare every center exactly
            sq = (centers * centers).sum(axis=1)
            coef = np.vstack([-2.0 * centers.T, sq])
            reach = self.norms + np.sqrt(sq.max())
            reach *= reach
            tol2 = 16 * (d + 4) * (_UNIT_ROUNDOFF * reach + _SMALLEST_SUBNORMAL)
            wide = ~(reach <= _REACH_MAX)
            full = ~self.settled | moved[self.labels] | wide
            self._full_screen(centers, coef, tol2, wide, np.flatnonzero(full))
            rest = np.flatnonzero(~full)
            if rest.size and moved.any():
                self._moved_screen(centers, coef, tol2, np.flatnonzero(moved), rest)
        return self.labels

    def _full_screen(self, centers, coef, tol2, wide, rows) -> None:
        """Screen ``rows`` against every center, in row blocks."""
        for block in row_blocks(len(rows), 8 * len(centers)):
            r = rows[block]
            out = np.dot(self.lifted[r], coef)
            i = np.arange(len(r))
            lab = out.argmin(axis=1)
            val = out[i, lab]
            lim = val + tol2[r]
            out[i, lab] = np.inf  # the runner-up decides, without a (rows, m) mask
            amb = (out[i, out.argmin(axis=1)] <= lim) | wide[r]  # argmin and a gather beat a second min
            if amb.any():
                cand = out[amb] <= lim[amb, None]
                cand[wide[r[amb]]] = True
                cand[np.arange(len(cand)), lab[amb]] = True
                lab[amb] = _kernel_argmin(self.points, centers, r[amb], cand)
            self.labels[r], self.values[r], self.settled[r] = lab, val, ~amb

    def _moved_screen(self, centers, coef, tol2, cols, rows) -> None:
        """Screen settled ``rows`` whose label did not move against the
        centers ``cols`` that moved, one product of those centers' columns."""
        labels, values = self.labels, self.values
        block_coef = np.ascontiguousarray(coef[:, cols])
        for block in row_blocks(len(rows), 8 * len(cols)):
            r = rows[block]
            out = np.dot(self.lifted[r], block_coef)
            k = out.argmin(axis=1)
            hit = out[np.arange(len(r)), k] <= values[r] + tol2[r]
            if not hit.any():
                continue
            r, out, k = r[hit], out[hit], k[hit]
            i = np.arange(len(r))
            lim = np.minimum(values[r], out[i, k]) + tol2[r]
            cand = out <= lim[:, None]
            keep = values[r] <= lim
            amb = cand.sum(axis=1) + keep > 1
            take = ~keep & ~amb  # a moved center alone can be nearest
            labels[r[take]] = cols[k[take]]
            values[r[take]] = out[i[take], k[take]]
            if amb.any():
                r = r[amb]
                every = np.zeros((len(r), len(centers)), dtype=bool)
                every[:, cols] = cand[amb]
                every[np.arange(len(r)), labels[r]] |= keep[amb]
                labels[r] = _kernel_argmin(self.points, centers, r, every)
                self.settled[r] = False


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
        if total > 0:  # rng.choice(n, p=d2 / total)'s draw, without its checks of p
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:  # all remaining points coincide with chosen centers
            idx = int(rng.integers(n))
        centers[c] = points[idx]
        d2 = np.minimum(d2, _sq_distances(points, centers[c:c + 1], nearest)[:, 0])
    return centers


def _cluster_sums(points: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each cluster's coordinate sums, bit for bit as ``points[labels ==
    c].sum(axis=0)`` gives them.  numpy adds the rows of a wider cluster one
    by one in input order, starting from 0.0, and so does ``bincount``; it
    sums a one-coordinate cluster pairwise, so that case sums each cluster's
    contiguous slice."""
    m, d = len(counts), points.shape[1]
    if d > 1:
        return np.column_stack([np.bincount(labels, weights=points[:, k], minlength=m) for k in range(d)])
    members = points[np.argsort(labels, kind="stable"), 0]
    sums = np.zeros((m, 1))
    lo = 0
    for c, hi in enumerate(np.cumsum(counts).tolist()):
        if hi > lo:
            sums[c] = members[lo:hi].sum()
        lo = hi
    return sums


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
    numpy's pairwise order (see ``_sq_distances``), and every center is its
    cluster's sum, added as ``points[labels == c].sum(axis=0)`` adds it,
    divided by its count (see ``_cluster_sums``): in input order, one
    ``bincount`` per coordinate, or pairwise when there is one coordinate.

    Each Lloyd assignment is screened with one GEMM, ``|c|² - 2 p·c``.  A
    rigorous per-row bound on its rounding error, valid for any BLAS order
    (``8(d + 4)(u R² + eta)``, see ``_Assignment``), keeps every center
    that could be nearest; only rows with more than one such center compute
    the exact squared distances, and only for those centers.  After the
    first iteration only the rows whose center moved, or that needed the
    kernel, are screened against every center; every other row compares
    the centers that moved with its stored screen value, since a center
    that did not move cannot come nearer than the one it lost to.  The
    labels are therefore the exact kernel's argmin bit for bit, and the
    output does not depend on the BLAS build or its threads.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if m > n:
        raise DataError(f"cannot place {m} centers on {n} points")
    if m == 0:
        raise DataError("need at least one center")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp(points, m, rng)
    assignment = _Assignment(points)
    moved = np.ones(m, dtype=bool)
    for _ in range(max_iter):
        labels = assignment.update(centers, moved)
        counts = np.bincount(labels, minlength=m)
        new_centers = _cluster_sums(points, labels, counts) / np.maximum(counts, 1)[:, None]
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            assigned_d2 = _pair_sq_distances(points, centers, np.arange(n), labels)
            farthest = np.argsort(-assigned_d2, kind="stable")[: empty.size]
            new_centers[empty] = points[farthest]
        moved = (new_centers.view(np.uint64) != centers.view(np.uint64)).any(axis=1)
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
