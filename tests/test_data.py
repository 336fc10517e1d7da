import csv
import math
import re
import tracemalloc

import numpy as np
import pytest

from fairfl import (
    DataError,
    MissingColumnError,
    ParseError,
    RawTable,
    SyntheticConfig,
    build_instance,
    generate_synthetic,
    load_csv,
    normalize,
    sample_clients,
    select_facilities_kmeans,
)
from fairfl import data as data_mod
from fairfl import instance as instance_mod
from fairfl.instance import _sq_distances, row_blocks


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_two_group_table(self, tmp_path):
        path = write(tmp_path, "age,sex,hours\n39,Male,40\n28,Female,38\n31,Male,45\n")
        table = load_csv(path, group_column="sex")
        assert table.n_rows == 3
        assert table.group_names == ("Male", "Female")
        assert list(table.groups) == [0, 1, 0]
        assert table.columns == ("age", "hours")
        assert table.features[1, 1] == 38.0

    def test_single_row(self, tmp_path):
        path = write(tmp_path, "v,g\n1.5,a\n")
        table = load_csv(path, group_column="g")
        assert table.n_rows == 1 and table.n_groups == 1

    def test_feature_subset(self, tmp_path):
        path = write(tmp_path, "a,b,g\n1,2,x\n3,4,y\n")
        table = load_csv(path, group_column="g", feature_columns=["b"])
        assert table.columns == ("b",)
        assert table.features.tolist() == [[2.0], [4.0]]

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write(tmp_path, "a,g\n1,x\noops,y\n")
        with pytest.raises(ParseError, match=r"line 3, column 'a'"):
            load_csv(path, group_column="g")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nope.csv", group_column="g")

    def test_missing_group_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, group_column="sex")

    def test_missing_feature_column(self, tmp_path):
        path = write(tmp_path, "a,g\n1,x\n")
        with pytest.raises(MissingColumnError):
            load_csv(path, group_column="g", feature_columns=["zz"])

    def test_short_row_rejected(self, tmp_path):
        path = write(tmp_path, "a,b,g\n1,2,x\n3,4\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, group_column="g")

    def test_alternate_delimiter(self, tmp_path):
        path = write(tmp_path, "a;g\n1;x\n")
        table = load_csv(path, group_column="g", delimiter=";")
        assert table.features[0, 0] == 1.0

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e309", " NaN ", "-1e400"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = write(tmp_path, f"a,b,g\n1,2,x\n3,4,y\n5,{cell},z\n")
        with pytest.raises(ParseError, match=r"line 4, column 'b': non-finite value"):
            load_csv(path, group_column="g")

    def test_first_bad_cell_is_named(self, tmp_path):
        # a non-finite cell on an earlier line, or earlier in the same row,
        # comes before a non-numeric one
        path = write(tmp_path, "a,b,g\n1,inf,x\n3,4,y\noops,6,z\n")
        with pytest.raises(ParseError, match=r"line 2, column 'b': non-finite value"):
            load_csv(path, group_column="g")
        path = write(tmp_path, "a,b,g\n1,2,x\nnan,oops,y\n")
        with pytest.raises(ParseError, match=r"line 3, column 'a': non-finite value"):
            load_csv(path, group_column="g")
        path = write(tmp_path, "a,b,g\n1,2,x\n3, oops ,y\n5,inf,z\n")
        with pytest.raises(ParseError, match=r"line 3, column 'b': 'oops' is not numeric"):
            load_csv(path, group_column="g")

    def test_missing_cell_is_not_numeric(self, tmp_path):
        path = write(tmp_path, "a,b,g\n1,2,x\n3,  ,y\n")
        with pytest.raises(ParseError, match=r"line 3, column 'b': '' is not numeric"):
            load_csv(path, group_column="g")

    def test_whitespace_padded_numbers(self, tmp_path):
        path = write(tmp_path, "a , b,g\n 1.5,\t2 , x \n-3e2 ,4\t, y\n")
        table = load_csv(path, group_column="g")
        assert table.columns == ("a", "b")
        assert table.features.tolist() == [[1.5, 2.0], [-300.0, 4.0]]
        assert table.group_names == ("x", "y")

    def test_whitespace_only_rows_are_skipped(self, tmp_path):
        # skipped rows still count toward the line numbers that errors name
        path = write(tmp_path, "a,g\n1,x\n , \n\n  \t\n2,y\nbad,z\n")
        with pytest.raises(ParseError, match=r"line 7, column 'a'"):
            load_csv(path, group_column="g")
        path = write(tmp_path, "a,g\n\n1,x\n , \n\n2,y\n\n3,z\n4,z\ninf,z\n5,y\n")
        with pytest.raises(ParseError, match=r"line 10, column 'a': non-finite value"):
            load_csv(path, group_column="g")
        path = write(tmp_path, "a,g\n1,x\n , \n\n  \t\n2,y\n")
        table = load_csv(path, group_column="g")
        assert table.features.tolist() == [[1.0], [2.0]]
        assert list(table.groups) == [0, 1]

    def test_only_whitespace_rows_is_no_data(self, tmp_path):
        path = write(tmp_path, "a,g\n , \n\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path, group_column="g")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "g,a,b\nx,1,2\ny,3,4\n"
        plain = load_csv(write(tmp_path, text), group_column="g")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked = load_csv(str(tmp_path / "bom.csv"), group_column="g")
        assert marked.columns == plain.columns == ("a", "b")
        assert marked.group_names == plain.group_names
        assert marked.features.tobytes() == plain.features.tobytes()
        assert marked.groups.tobytes() == plain.groups.tobytes()

    @pytest.mark.parametrize("header, name", [("a,a,g", "a"), ("a,g,g", "g"), ("a,g,b,a", "a")])
    def test_duplicate_read_column_is_a_data_error(self, tmp_path, header, name):
        width = header.count(",") + 1
        path = write(tmp_path, f"{header}\n" + ",".join(["1"] * width) + "\n")
        with pytest.raises(DataError, match=f"column {name!r} appears more than once in header"):
            load_csv(path, group_column="g")

    def test_duplicate_unread_column_is_allowed(self, tmp_path):
        path = write(tmp_path, "a,a,b,g\n1,2,3,x\n4,5,6,y\n")
        table = load_csv(path, group_column="g", feature_columns=["b"])
        assert table.features.tolist() == [[3.0], [6.0]]

    def test_feature_column_named_twice_is_a_data_error(self, tmp_path):
        # read twice, column a would weigh double in every distance
        path = write(tmp_path, "a,b,g\n1,2,x\n3,4,y\n")
        with pytest.raises(DataError, match="feature column 'a' is named more than once"):
            load_csv(path, group_column="g", feature_columns=["a", "a"])
        with pytest.raises(DataError, match="feature column 'b' is named more than once"):
            load_csv(path, group_column="g", feature_columns=("b", "a", "b"))

    @pytest.mark.parametrize("text, message", [
        ('a,g\n1,"x\ny"\noops,z\n', "line 4, column 'a': 'oops' is not numeric"),
        ('a,g\n1,"x\ny"\n\ninf,z\n', "line 5, column 'a': non-finite value"),
        ('a,g\n1,"x\n\ny"\n2,z\n3\n', "line 6: expected 2 cells, got 1"),
        ('a,g\n"1\n",x\n2,"\ny"\noops,z\n', "line 6, column 'a': 'oops' is not numeric"),
        ('a,g\n1,x\n"oops\n",z\n', "line 3, column 'a': 'oops' is not numeric"),
    ])
    def test_errors_name_the_file_line_a_record_starts_on(self, tmp_path, text, message):
        # a quoted cell may hold line breaks, so records and lines differ
        with pytest.raises(ParseError, match=re.escape(message)):
            load_csv(write(tmp_path, text), group_column="g")


class TestNormalize:
    def make(self, cols):
        arr = np.array(cols, float).T
        return RawTable(arr, np.zeros(len(arr), dtype=np.int64), ("g",), tuple(f"c{i}" for i in range(arr.shape[1])))

    def test_min_max(self):
        out = normalize(self.make([[0.0, 5.0, 10.0]]))
        assert out.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_to_zero(self):
        out = normalize(self.make([[7.0, 7.0]]))
        assert out.features[:, 0].tolist() == [0.0, 0.0]

    def test_already_unit_interval_unchanged(self):
        out = normalize(self.make([[0.0, 0.25, 1.0]]))
        assert out.features[:, 0].tolist() == [0.0, 0.25, 1.0]

    def test_idempotent(self):
        table = self.make([[3.0, -1.0, 4.0], [2.0, 2.0, 2.0]])
        once = normalize(table)
        twice = normalize(once)
        assert np.array_equal(once.features, twice.features)


class TestSampleClients:
    def make(self, n=10):
        return RawTable(
            np.arange(n, dtype=float).reshape(n, 1),
            np.zeros(n, dtype=np.int64),
            ("g",),
            ("c0",),
        )

    def test_full_sample_is_identity(self):
        table = self.make()
        out = sample_clients(table, 10, seed=3)
        assert np.array_equal(out.features, table.features)

    def test_empty_sample(self):
        out = sample_clients(self.make(), 0, seed=3)
        assert out.n_rows == 0

    def test_seed_reproducible(self):
        a = sample_clients(self.make(), 4, seed=11)
        b = sample_clients(self.make(), 4, seed=11)
        c = sample_clients(self.make(), 4, seed=12)
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_oversample_rejected(self):
        with pytest.raises(DataError):
            sample_clients(self.make(), 11, seed=0)


class TestKmeansFacilities:
    def test_m_equals_n_returns_the_points(self, rng):
        pts = rng.random((6, 2))
        centers = select_facilities_kmeans(pts, 6, seed=0)
        got = {tuple(np.round(c, 9)) for c in centers}
        want = {tuple(np.round(p, 9)) for p in pts}
        assert got == want

    def test_two_blobs_one_center_each(self, rng):
        blob_a = rng.normal(0, 0.05, (20, 2))
        blob_b = rng.normal(5, 0.05, (20, 2)) + np.array([5.0, 0.0])
        centers = select_facilities_kmeans(np.vstack([blob_a, blob_b]), 2, seed=1)
        d_a = min(np.linalg.norm(c - blob_a.mean(axis=0)) for c in centers)
        d_b = min(np.linalg.norm(c - blob_b.mean(axis=0)) for c in centers)
        assert d_a < 0.1 and d_b < 0.1

    def test_seed_reproducible(self, rng):
        pts = rng.random((30, 3))
        a = select_facilities_kmeans(pts, 5, seed=7)
        b = select_facilities_kmeans(pts, 5, seed=7)
        assert np.array_equal(a, b)

    def test_m_above_n_rejected(self, rng):
        with pytest.raises(DataError):
            select_facilities_kmeans(rng.random((3, 2)), 4, seed=0)

    def test_duplicate_points_still_yield_m_centers(self):
        pts = np.zeros((5, 2))
        pts[3:] = 1.0
        centers = select_facilities_kmeans(pts, 4, seed=0)
        assert centers.shape == (4, 2)

    def test_row_blocks_do_not_change_centers(self, rng, monkeypatch):
        # one block is the whole (points x centers) computation
        pts = rng.random((300, 4))
        monkeypatch.setattr(instance_mod, "_KERNEL_BLOCK_BYTES", 1 << 40)
        whole = select_facilities_kmeans(pts, 9, seed=3)
        for block_bytes in (1, 200, 5000):
            monkeypatch.setattr(instance_mod, "_KERNEL_BLOCK_BYTES", block_bytes)
            assert select_facilities_kmeans(pts, 9, seed=3).tobytes() == whole.tobytes()

    def test_count_exact_on_random(self, rng):
        for m in (1, 3, 7):
            centers = select_facilities_kmeans(rng.random((12, 2)), m, seed=2)
            assert centers.shape[0] == m


class TestSynthetic:
    def test_default_counts(self):
        inst, names = generate_synthetic(SyntheticConfig())
        assert names == ("in", "out")
        assert inst.n_clients == 550
        assert len(inst.group_members[0]) == 500
        assert len(inst.group_members[1]) == 50
        assert inst.n_facilities == 100

    def test_cost_rule_inclusive_boundary(self):
        inst, _ = generate_synthetic(SyntheticConfig(seed=5))
        norms = np.sqrt((inst.facility_coords**2).sum(axis=1))
        near = norms <= 10.0
        assert np.array_equal(inst.open_costs[near], np.full(near.sum(), 80.0))
        assert np.array_equal(inst.open_costs[~near], np.full((~near).sum(), 40.0))

    def test_origin_facility_costs_near_rate(self):
        cfg = SyntheticConfig()
        assert cfg.cost_near == 80.0 and cfg.cost_far == 40.0

    def test_in_group_mean_sanity(self):
        inst, _ = generate_synthetic(SyntheticConfig(seed=0))
        coords = inst.client_coords[: 500]
        bound = 3 * 10.0 / np.sqrt(500)
        assert np.all(np.abs(coords.mean(axis=0)) < bound)

    def test_seed_reproducible(self):
        a, _ = generate_synthetic(SyntheticConfig(seed=9))
        b, _ = generate_synthetic(SyntheticConfig(seed=9))
        assert np.array_equal(a.client_coords, b.client_coords)
        assert np.array_equal(a.open_costs, b.open_costs)

    def test_count_validation(self):
        with pytest.raises(DataError):
            SyntheticConfig(n_in=0)


class TestBuildInstance:
    def test_uniform_dmax_costs(self, rng):
        table = RawTable(rng.random((8, 2)), np.zeros(8, dtype=np.int64), ("g",), ("a", "b"))
        fac = rng.random((3, 2))
        inst = build_instance(table, fac)
        assert inst.open_costs.tobytes() == np.full(3, inst.distances().max()).tobytes()

    def test_row_blocks_do_not_change_costs(self, rng, monkeypatch):
        table = RawTable(rng.random((50, 3)), np.zeros(50, dtype=np.int64), ("g",), ("a", "b", "c"))
        fac = rng.random((9, 3))
        monkeypatch.setattr(instance_mod, "_KERNEL_BLOCK_BYTES", 1 << 40)
        whole = build_instance(table, fac).open_costs
        for block_bytes in (1, 1500, 5000):
            monkeypatch.setattr(instance_mod, "_KERNEL_BLOCK_BYTES", block_bytes)
            assert build_instance(table, fac).open_costs.tobytes() == whole.tobytes()


# ---------------------------------------------------------------------------
# Facility selection and the uniform cost as they were computed from whole
# broadcast (rows x centers x dim) products, kept verbatim as the reference
# the squared-distance kernel must reproduce bit for bit.


def _reference_kmeans_pp(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
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


def _reference_select_facilities_kmeans(
    points: np.ndarray,
    m: int,
    seed: int,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    n = len(points)
    if m > n:
        raise DataError(f"cannot place {m} centers on {n} points")
    if m == 0:
        raise DataError("need at least one center")
    rng = np.random.default_rng(seed)
    centers = _reference_kmeans_pp(points, m, rng)
    for _ in range(max_iter):
        d2 = np.empty((n, m))
        for rows in row_blocks(n, centers.nbytes):
            d2[rows] = ((points[rows, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
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


def _reference_d_max(features: np.ndarray, facility_coords: np.ndarray) -> float:
    d_max = 0.0
    for rows in row_blocks(len(facility_coords), features.nbytes):
        diff = facility_coords[rows, None, :] - features[None, :, :]
        d_max = max(d_max, float(np.sqrt((diff**2).sum(axis=2)).max()))
    return d_max


def _mixed_points(rng, n, d):
    """Signed coordinates spanning nine orders of magnitude."""
    return rng.normal(size=(n, d)) * 10.0 ** rng.integers(-4, 5, size=(n, d))


def _write_table(path, n_rows: int, seed: int) -> str:
    """Six-feature, two-group (2:1) table, the generator of the large-CSV
    acceptance test and of the benchmark's CSV workload."""
    rng = np.random.default_rng(seed)
    features = np.column_stack(
        [
            rng.normal(50, 12, n_rows),
            rng.exponential(8.0, n_rows),
            rng.normal(0, 1, n_rows),
            rng.uniform(0, 100, n_rows),
            rng.normal(30, 5, n_rows),
            rng.exponential(2.0, n_rows),
        ]
    )
    groups = np.where(rng.random(n_rows) < 2 / 3, "A", "B")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c0,c1,c2,c3,c4,c5,grp\n")
        for row, g in zip(features, groups):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{g}\n")
    return str(path)


def _criterion_12_clients(tmp_path) -> np.ndarray:
    """The normalized 4500 x 6 client sample of the 4500x100 acceptance sweep."""
    path = _write_table(tmp_path / "big.csv", 6000, seed=7)
    return sample_clients(normalize(load_csv(path, group_column="grp")), 4500, seed=0).features


class TestSqDistancesKernel:
    """``_sq_distances`` against the broadcast expression, compared as bytes."""

    @staticmethod
    def whole(points, centers):
        return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)

    @pytest.mark.parametrize("d", list(range(1, 41)) + [129, 136, 300])
    def test_bitwise_equal_to_broadcast(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        for block_bytes in (1, 700, 1 << 18):
            monkeypatch.setattr(instance_mod, "_KERNEL_BLOCK_BYTES", block_bytes)
            for n, m in ((1, 1), (1, 7), (9, 1), (23, 5)):
                points, centers = _mixed_points(rng, n, d), _mixed_points(rng, m, d)
                got = _sq_distances(points, centers, np.empty((n, m)))
                assert got.tobytes() == self.whole(points, centers).tobytes()

    def test_row_form_of_one_center(self, rng):
        # the seeding's distances to one new center: a 2-D sum over axis 1
        for d in (1, 6, 8, 17, 130):
            points, center = _mixed_points(rng, 50, d), _mixed_points(rng, 1, d)
            got = _sq_distances(points, center, np.empty((50, 1)))[:, 0]
            assert got.tobytes() == ((points - center[0]) ** 2).sum(axis=1).tobytes()

    def test_large_csv_size(self, rng):
        points, centers = rng.random((4500, 6)), rng.random((100, 6))
        got = _sq_distances(points, centers, np.empty((4500, 100)))
        assert got.tobytes() == self.whole(points, centers).tobytes()


class TestKmeansMatchesReference:
    """``select_facilities_kmeans`` against ``_reference_select_facilities_kmeans``."""

    @staticmethod
    def assert_same(points, m, seed, **kwargs):
        want = _reference_select_facilities_kmeans(points, m, seed, **kwargs)
        got = select_facilities_kmeans(points, m, seed, **kwargs)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 7, 8, 9, 16, 17, 40, 130])
    def test_random_inputs(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(4):
            n = int(rng.integers(1, 120))
            m = int(rng.integers(1, n + 1))
            self.assert_same(_mixed_points(rng, n, d), m, seed=int(rng.integers(1000)))
        # clusters of dozens of points, where numpy sums a one-coordinate
        # cluster pairwise and a wider one row by row
        self.assert_same(_mixed_points(rng, 300, d), 3, seed=d)

    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_duplicate_points_force_empty_clusters(self, d):
        rng = np.random.default_rng(d)
        # three distinct locations, so every center beyond three starts empty
        pts = np.repeat(rng.normal(size=(3, d)), [7, 2, 4], axis=0)
        for m in (4, 6, 13):
            self.assert_same(pts, m, seed=m)
        # integer grid: ties in distance and in the farthest-point order
        self.assert_same(rng.integers(0, 3, size=(60, d)).astype(float), 12, seed=1)

    def test_run_that_hits_max_iter(self, rng):
        pts = rng.random((400, 3))
        # the unlimited run needs more rounds than the cap allows
        for max_iter in (1, 2, 5):
            self.assert_same(pts, 20, seed=4, max_iter=max_iter)
        self.assert_same(pts, 20, seed=4, max_iter=5, tol=0.0)

    def test_large_csv_draw(self, tmp_path):
        clients = _criterion_12_clients(tmp_path)
        assert clients.shape == (4500, 6)
        self.assert_same(clients, 100, seed=0)

    def test_property_on_small_grids(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 30))
            d = data.draw(st.integers(1, 10))
            m = data.draw(st.integers(1, n))
            value = st.one_of(st.integers(-3, 3).map(float),
                              st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
            pts = np.array(data.draw(st.lists(st.lists(value, min_size=d, max_size=d),
                                              min_size=n, max_size=n)))
            self.assert_same(pts, m, seed=data.draw(st.integers(0, 50)),
                             max_iter=data.draw(st.integers(1, 30)))

        check()


class TestKmeansPpSeeding:
    def test_draws_and_generator_state_match_rng_choice(self):
        # the seeding samples from the cumulative weights itself; it must take
        # the random numbers rng.choice(n, p=d2 / total) takes, and the same
        # draws; each location holds about 8 points, so every chosen center
        # gives its copies zero weight
        rng = np.random.default_rng(57)
        for seed in range(40):
            n = int(rng.integers(2, 3000))
            sites = n // 8 + 2
            points = rng.normal(size=(sites, 3))[rng.integers(0, sites, n)]
            m = int(rng.integers(2, 40))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = data_mod._kmeans_pp(points, m, got_rng)
            assert got.tobytes() == _reference_kmeans_pp(points, m, want_rng).tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestBuildInstanceMatchesReference:
    @pytest.mark.parametrize("d", [1, 2, 6, 8, 13, 130])
    def test_uniform_cost(self, d):
        rng = np.random.default_rng(d)
        for n, m in ((1, 1), (1, 4), (30, 1), (40, 9)):
            features = _mixed_points(rng, n, d)
            fac = _mixed_points(rng, m, d)
            table = RawTable(features, np.zeros(n, dtype=np.int64), ("g",),
                             tuple(f"c{k}" for k in range(d)))
            costs = build_instance(table, fac).open_costs
            assert costs.tobytes() == np.full(m, _reference_d_max(features, fac)).tobytes()

    def test_large_csv_draw(self, tmp_path):
        clients = _criterion_12_clients(tmp_path)
        fac = select_facilities_kmeans(clients, 100, seed=0)
        table = RawTable(clients, np.zeros(len(clients), dtype=np.int64), ("g",),
                         tuple(f"c{k}" for k in range(6)))
        costs = build_instance(table, fac).open_costs
        assert costs.tobytes() == np.full(100, _reference_d_max(clients, fac)).tobytes()


def _reference_labels(points, centers):
    """The reference's assignment step: argmin of the broadcast distances."""
    return np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)


def _screen_steps(points, steps):
    """The k-means assignment step run over a sequence of center arrays, the
    state carried as Lloyd's loop carries it; each step's labels."""
    assignment = data_mod._Assignment(points)
    out, previous = [], None
    for centers in steps:
        if previous is None:
            moved = np.ones(len(centers), dtype=bool)
        else:
            moved = (centers.view(np.uint64) != previous.view(np.uint64)).any(axis=1)
        out.append(assignment.update(centers, moved).copy())
        previous = centers
    return out


def _screened_labels(points, centers):
    """The k-means assignment step on its first iteration: every center moved."""
    return _screen_steps(points, [centers])[0]


def _perturbing_dot(monkeypatch):
    """Patch ``np.dot`` so that each screen entry moves by half the documented
    bound ``8(d + 4) u R²``: up for the exact nearest center (lowest index on
    ties), down for every other center, so a bound that does not hold shows.
    Returns the list of the center counts of the products it perturbed."""
    real_dot = np.dot
    widths = []

    def dot(a, b):
        widths.append(b.shape[1])
        res = real_dot(a, b)
        d = a.shape[1] - 1
        p, c = a[:, :d], -0.5 * b[:d].T  # undo the folded -2, exactly
        reach = np.sqrt((p * p).sum(axis=1)) + np.sqrt((c * c).sum(axis=1)).max()
        half = 4 * (d + 4) * 2.0**-53 * reach * reach
        exact = _reference_labels(p, c)
        shift = np.repeat(-half[:, None], len(c), axis=1)
        shift[np.arange(len(p)), exact] = half
        return res + shift

    monkeypatch.setattr(np, "dot", dot)
    return widths


class TestScreenedAssignment:
    """The GEMM screen with its exact settle against the broadcast argmin and
    the reference k-means, compared as bytes."""

    @staticmethod
    def assert_same_labels(points, centers):
        assert _screened_labels(points, centers).tobytes() == _reference_labels(points, centers).tobytes()

    @pytest.mark.parametrize("d", [1, 7, 8, 9, 128, 129, 300])
    def test_dimensions(self, d):
        rng = np.random.default_rng(500 + d)
        for n, m in ((1, 1), (30, 1), (1, 9), (40, 9)):
            self.assert_same_labels(rng.random((n, d)), rng.random((m, d)))
            self.assert_same_labels(_mixed_points(rng, n, d), _mixed_points(rng, m, d))
        for m in (1, 2, 7):
            points = rng.random((60, d))
            TestKmeansMatchesReference.assert_same(points, m, seed=d)

    @pytest.mark.parametrize("d", [1, 2, 6, 9])
    def test_exact_ties(self, d):
        rng = np.random.default_rng(600 + d)
        # duplicate centers: the lower index must win every tie
        base = rng.random((5, d))
        centers = base[[3, 0, 3, 1, 0, 4, 2, 4]]
        self.assert_same_labels(rng.random((80, d)), centers)
        self.assert_same_labels(base[rng.integers(0, 5, 80)], centers)
        # integer grids: many points equidistant from several centers
        grid = rng.integers(-2, 3, (120, d)).astype(float)
        self.assert_same_labels(grid, grid[rng.integers(0, 120, 15)] + 0.5)
        self.assert_same_labels(grid, rng.integers(-2, 3, (15, d)).astype(float))
        TestKmeansMatchesReference.assert_same(grid, 14, seed=d)
        TestKmeansMatchesReference.assert_same(np.repeat(base, 6, axis=0), 8, seed=d)

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_large_common_offset(self, offset):
        # |p|² and p·c cancel to a few digits, so the screen must defer to the kernel
        rng = np.random.default_rng(int(np.log10(offset)))
        for d in (1, 3, 6):
            points = offset + rng.random((150, d))
            self.assert_same_labels(points, offset + rng.random((12, d)))
            TestKmeansMatchesReference.assert_same(points, 12, seed=d)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-320, 1e-310, 1e-162, 1e-155, 1e150, 1e152, 1e153, 1e155, 1e160])
    def test_extreme_scales(self, scale):
        # subnormal and underflowing products need the floor; overflowing
        # products need the fallback to the kernel
        rng = np.random.default_rng(7)
        for d in (1, 2, 6):
            points = rng.normal(size=(80, d)) * scale
            self.assert_same_labels(points, rng.normal(size=(9, d)) * scale)
            self.assert_same_labels(points, rng.normal(size=(9, d)))
            if scale < 1e153:
                TestKmeansMatchesReference.assert_same(points, 9, seed=d, max_iter=20)
            else:  # the seeding's probabilities overflow; one center needs none
                TestKmeansMatchesReference.assert_same(points, 1, seed=d, max_iter=20)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e153, 1e155, 1e160])
    def test_seeding_overflow_is_a_data_error(self, scale):
        # the inputs of test_extreme_scales: where the squared distances
        # overflow, numpy's sampler fails on NaN probabilities in the
        # reference, and the seeding names the overflow instead
        rng = np.random.default_rng(7)
        raised = 0
        for d in (1, 2, 6):
            points = rng.normal(size=(80, d)) * scale
            rng.normal(size=(9, d)), rng.normal(size=(9, d))  # the centers drawn there
            try:
                want = _reference_select_facilities_kmeans(points, 9, seed=d, max_iter=20)
            except ValueError:
                with pytest.raises(DataError, match="overflow"):
                    select_facilities_kmeans(points, 9, seed=d, max_iter=20)
                raised += 1
            else:
                assert select_facilities_kmeans(points, 9, seed=d, max_iter=20).tobytes() == want.tobytes()
        assert raised >= (2 if scale == 1e153 else 3)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_overflow_rows_beside_ordinary_rows(self):
        rng = np.random.default_rng(8)
        points = rng.random((50, 4))
        points[::7] *= 1e155  # these rows' bound overflows; the others screen
        points[3] = 1e308
        centers = rng.random((6, 4))
        centers[2] = centers[4]
        self.assert_same_labels(points, centers)

    def test_perturbed_gemm_changes_nothing(self, monkeypatch):
        rng = np.random.default_rng(9)
        cases = []
        for d in (1, 2, 6, 9):
            grid = rng.integers(0, 4, (90, d)).astype(float)
            cases.append((grid, grid[rng.integers(0, 90, 10)] + rng.integers(0, 2, (10, d)) * 0.5, 10))
            cases.append((rng.random((90, d)), rng.random((10, d)), 10))
            cases.append((1e6 + rng.random((90, d)), 1e6 + rng.random((10, d)), 10))
        want = [(_reference_labels(p, c), _reference_select_facilities_kmeans(p, m, seed=3)) for p, c, m in cases]
        widths = _perturbing_dot(monkeypatch)
        for (points, centers, m), (labels, km) in zip(cases, want):
            assert _screened_labels(points, centers).tobytes() == labels.tobytes()
            assert select_facilities_kmeans(points, m, seed=3).tobytes() == km.tobytes()
        # the moved-centers screen was perturbed too, not only the full one
        assert min(widths) < 10

    @pytest.mark.parametrize("d", [1, 2, 6, 9])
    def test_carried_state_after_some_centers_move(self, d):
        rng = np.random.default_rng(700 + d)
        grid = rng.integers(-2, 3, (150, d)).astype(float)
        for points in (grid, rng.random((150, d)), 1e6 + rng.random((150, d))):
            steps = [points[rng.choice(150, 12, replace=False)] + 0.5]
            nxt = steps[-1].copy()
            nxt[[1, 5, 8]] = points[rng.choice(150, 3)] + rng.integers(0, 2, (3, d)) * 0.5
            steps.append(nxt)
            nxt = nxt.copy()
            nxt[9] = nxt[2]  # an exact duplicate: the lower index keeps every tie
            nxt[0] = nxt[0] + 1e-9
            steps.append(nxt)
            nxt = nxt.copy()
            nxt[2] = points[rng.integers(150)]  # the duplicate's original moves away
            nxt[11, 0] = 0.0
            steps.append(nxt)
            nxt = nxt.copy()
            nxt[11, 0] = -0.0  # same values, other bytes
            steps.append(nxt)
            steps.append(steps[0])
            for centers, labels in zip(steps, _screen_steps(points, steps)):
                assert labels.tobytes() == _reference_labels(points, centers).tobytes()

    def test_row_settled_by_the_kernel_is_screened_in_full_next(self):
        # two moved centers tie nearer than the label, so the kernel picks
        # center 0 and the stored screen value (center 2's) no longer applies;
        # center 3 then moves between them and must not take the point
        points = np.array([[0.0], [100.0]])
        steps = [np.array([[50.0], [60.0], [1.0], [70.0]])]
        steps.append(np.array([[-0.5], [0.5], [1.0], [70.0]]))
        steps.append(np.array([[-0.5], [0.5], [1.0], [0.8]]))
        got = _screen_steps(points, steps)
        assert [labels[0] for labels in got] == [2, 0, 0]
        for centers, labels in zip(steps, got):
            assert labels.tobytes() == _reference_labels(points, centers).tobytes()

    def test_large_csv_draw_rescreens_only_rows_whose_center_moved(self, tmp_path, monkeypatch):
        clients = _criterion_12_clients(tmp_path)
        counts = []

        def counting(self, centers, coef, tol2, wide, rows):
            counts.append(len(rows))
            return full_screen(self, centers, coef, tol2, wide, rows)

        full_screen = data_mod._Assignment._full_screen
        monkeypatch.setattr(data_mod._Assignment, "_full_screen", counting)
        select_facilities_kmeans(clients, 100, seed=0)
        # every row on the first of 53 iterations; after it, every row is
        # settled by the screen, so only rows whose center moved: 38% of
        # n x iterations
        assert len(counts) == 53 and counts[0] == 4500
        assert sum(counts[1:]) == 91723

    def test_screen_alone_settles_the_large_csv_draw(self, tmp_path, monkeypatch):
        # on normalized data the bound is about 1e-14, far below any gap, so
        # no row of the 4500-point draw needs the kernel
        clients = _criterion_12_clients(tmp_path)
        pairs = []

        def counting(points, centers, rows, cols):
            pairs.append(len(rows))
            return pair_sq_distances(points, centers, rows, cols)

        pair_sq_distances = data_mod._pair_sq_distances
        monkeypatch.setattr(data_mod, "_pair_sq_distances", counting)
        centers = select_facilities_kmeans(clients, 100, seed=0)
        assert sum(pairs) == 0
        assert centers.tobytes() == _reference_select_facilities_kmeans(clients, 100, seed=0).tobytes()


class TestPairSqDistances:
    @pytest.mark.parametrize("d", [1, 6, 8, 17, 129, 300])
    def test_bitwise_equal_to_kernel(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        points, centers = _mixed_points(rng, 20, d), _mixed_points(rng, 7, d)
        full = _sq_distances(points, centers, np.empty((20, 7)))
        rows, cols = rng.integers(0, 20, 90), rng.integers(0, 7, 90)
        for block_bytes in (1, 700, 1 << 18):
            monkeypatch.setattr(instance_mod, "_KERNEL_BLOCK_BYTES", block_bytes)
            got = instance_mod._pair_sq_distances(points, centers, rows, cols)
            assert got.tobytes() == full[rows, cols].tobytes()


# ---------------------------------------------------------------------------
# The loader as it parsed every file with csv.reader and one float() per
# cell, kept verbatim (helpers included) as the reference numpy's C reader
# must reproduce: the same RawTable bytes, or the same exception and message.


def _reference_load_csv(
    path: str,
    group_column: str,
    feature_columns=None,
    delimiter: str = ",",
) -> RawTable:
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
        blank_lines: list[int] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                blank_lines.append(line_no)
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}")
            try:
                rows.append([float(row[pos]) for pos in feat_pos])
            except ValueError:
                # a non-finite cell on an earlier line comes first
                _reference_require_finite(path, np.array(rows).reshape(-1, len(feat_pos)), blank_lines,
                                          feature_columns)
                raise _reference_cell_error(path, line_no, row, feature_columns, feat_pos) from None
            labels.append(row[group_pos].strip())
    if not rows:
        raise ParseError(f"{path}: no data rows")
    features = np.array(rows, dtype=float)
    _reference_require_finite(path, features, blank_lines, feature_columns)

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


def _reference_require_finite(path, features, blank_lines, columns) -> None:
    finite = np.isfinite(features)
    if not finite.all():
        i, k = np.argwhere(~finite)[0]
        line_no = i + 2
        for blank in blank_lines:
            line_no += blank <= line_no
        raise ParseError(f"{path}: line {line_no}, column {columns[k]!r}: non-finite value")


def _reference_cell_error(path, line_no, row, columns, positions) -> ParseError:
    for col, pos in zip(columns, positions):
        cell = row[pos].strip()
        try:
            if math.isfinite(float(cell)):
                continue
        except ValueError:
            return ParseError(f"{path}: line {line_no}, column {col!r}: {cell!r} is not numeric")
        return ParseError(f"{path}: line {line_no}, column {col!r}: non-finite value")
    raise AssertionError("a row that failed to parse has no bad cell")


def _outcome(load, *args, **kwargs):
    """A loader's table as bytes, or its exception's class and message."""
    try:
        t = load(*args, **kwargs)
    except (DataError, csv.Error) as exc:
        return type(exc), str(exc)
    return (t.features.dtype, t.features.shape, t.features.tobytes(), t.groups.dtype, t.groups.tobytes(),
            t.group_names, t.columns)


class TestLoadCsvMatchesReference:
    """``load_csv`` against ``_reference_load_csv``, with the C reader's
    result (None when it refused the file) recorded."""

    @pytest.fixture
    def fast(self, monkeypatch):
        results = []

        def recording(*args):
            results.append(read_fast(*args))
            return results[-1]

        read_fast = data_mod._read_fast
        monkeypatch.setattr(data_mod, "_read_fast", recording)
        return results

    @staticmethod
    def assert_same(path, group_column="g", feature_columns=None, delimiter=","):
        args = (path, group_column, feature_columns, delimiter)
        got, want = _outcome(load_csv, *args), _outcome(_reference_load_csv, *args)
        assert got == want
        return got

    def test_benchmark_table_takes_the_c_reader(self, tmp_path, fast):
        path = _write_table(tmp_path / "bench.csv", 6000, seed=0)
        got = self.assert_same(path, "grp")
        assert got[1] == (6000, 6) and sorted(got[5]) == ["A", "B"]
        assert len(fast) == 1 and fast[0] is not None

    @pytest.mark.parametrize("text, feature_columns, delimiter", [
        ("a,g\n1,x\n2,y\n", None, ","),
        ("a,b,g\r\n 1 ,\t2e-3\t,x\r\n+.5,-0,y \r\n\r\n", None, ","),
        ("u,a,g,v\nq,1,x,r\ns,2,y,t\n", ["a"], ","),
        ("a;g\n1;x\n", None, ";"),
    ])
    def test_c_reader_reads_as_csv_and_float(self, tmp_path, fast, text, feature_columns, delimiter):
        self.assert_same(write(tmp_path, text), feature_columns=feature_columns, delimiter=delimiter)
        assert len(fast) == 1 and fast[0] is not None

    @pytest.mark.parametrize("text, feature_columns", [
        ("a,g\n1_0,x\n", None),                      # loadtxt refuses what float() reads
        ("a,g\n1,x\noops,y\n", None),                # loadtxt refuses, and so does float()
        ("a,g\n1,x\n \n2,y\n", None),                # a whitespace-only row
        ("a,g\n1,x\n , \n2,y\n", None),             # a row of blank cells
        ("a,b,g\n1,2,x\n3,4\n", None),               # a short row
        ("a,g\n1,x,3\n2,y,4\n", None),               # every row wider than the header
        ("a,g\n1,x\ninf,y\n", None),                 # a non-finite cell
        ("a,g\n1e309,x\n", None),
        ("a,g\n", None),                               # no data rows
        ("a,g\n\n\n", None),
        ('a,g\n"1",x\n', None),                      # quotes in a feature cell
        ('a,g\n1,"x,y"\n', None),                    # in the group cell
        ('u,a,g\n"p,q",1,x\n', ["a"]),               # in an unread cell
        ('u,v,w,a,g\n"p,q",r,1,x\n', ["a"]),         # loadtxt alone would split it to the header's width
    ])
    def test_refused_files_take_the_python_loop(self, tmp_path, fast, text, feature_columns):
        self.assert_same(write(tmp_path, text), feature_columns=feature_columns)
        assert fast == [None]

    @pytest.mark.parametrize("text, feature_columns", [
        ('"a\nb",g\n1,x\n', None),                  # a header over two lines
        ("a,g\n1,2\n", ["a", "g"]),                   # the group column is also read
    ])
    def test_c_reader_is_not_tried(self, tmp_path, fast, text, feature_columns):
        self.assert_same(write(tmp_path, text), feature_columns=feature_columns)
        assert fast == []

    def test_peak_memory_on_the_benchmark_table(self, tmp_path):
        path = _write_table(tmp_path / "bench.csv", 6000, seed=0)
        load_csv(path, "grp")  # numpy's lazy imports are not the reader's cost
        tracemalloc.start()
        try:
            load_csv(path, "grp")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.04e6

    def test_property_on_mixed_texts(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        number = st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.integers(-10**6, 10**6).map(str),
            st.sampled_from(["+.5", "-0", "1.", "1e-320", "2E3"]),
        )
        odd = st.sampled_from(["nan", " NaN", "inf", "-inf", "1e309", "1_0", "oops", "", " ", '"1"', '"1,2"',
                               '"a;b"', 'x"y', "\t7", "0x10", "\xa01"])
        cell = st.one_of(number, number.map(lambda v: f" {v}\t"), odd)
        label = st.sampled_from(["A", "B", " A", "B ", "c d", "", '"A"', "Ω"])

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.data())
        def check(data):
            delimiter = data.draw(st.sampled_from([",", ";", "\t"]))
            names = data.draw(st.permutations(["a", "b", "c", "g"]))[:data.draw(st.integers(2, 4))]
            if "g" not in names:
                names[-1] = "g"
            others = [h for h in names if h != "g"]
            features = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(others), min_size=1,
                                                                 max_size=len(others), unique=True)))
            read = set(features or others) | {"g"}
            lines = [delimiter.join(f" {h}" if data.draw(st.booleans()) else h for h in names)]
            clean = data.draw(st.booleans())  # read cells are numbers, and no row is refused for its shape
            kinds = ["row"] * 6 + ["empty"] + ([] if clean else ["spaces", "blank cells", "short", "long"])
            for _ in range(data.draw(st.integers(0, 8))):
                kind = data.draw(st.sampled_from(kinds))
                if kind == "empty":
                    lines.append("")
                elif kind == "spaces":
                    lines.append(" \t ")
                elif kind == "blank cells":
                    lines.append(delimiter.join([" "] * len(names)))
                else:
                    width = len(names) + {"row": 0, "short": -1, "long": 1}[kind]
                    row = [data.draw(label) if h == "g" else data.draw(number if clean and h in read else cell)
                           for h in (names + ["z"])[:width]]
                    lines.append(delimiter.join(row))
            newline = data.draw(st.sampled_from(["\n", "\r\n"]))
            text = newline.join(lines) + (newline if data.draw(st.booleans()) else "")
            path = tmp_path / "mixed.csv"
            path.write_bytes(text.encode("utf-8"))
            self.assert_same(str(path), feature_columns=features, delimiter=delimiter)

        check()
