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
from fairfl import instance as instance_mod


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
        # one block is the whole (points x centers x dim) computation
        pts = rng.random((300, 4))
        monkeypatch.setattr(instance_mod, "_BLOCK_BYTES", 1 << 40)
        whole = select_facilities_kmeans(pts, 9, seed=3)
        for block_bytes in (1, 200, 5000):
            monkeypatch.setattr(instance_mod, "_BLOCK_BYTES", block_bytes)
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
        d_max = inst.distances().max()
        assert np.allclose(inst.open_costs, d_max)

    def test_row_blocks_do_not_change_costs(self, rng, monkeypatch):
        table = RawTable(rng.random((50, 3)), np.zeros(50, dtype=np.int64), ("g",), ("a", "b", "c"))
        fac = rng.random((9, 3))
        monkeypatch.setattr(instance_mod, "_BLOCK_BYTES", 1 << 40)
        whole = build_instance(table, fac).open_costs
        for block_bytes in (1, 1500, 5000):
            monkeypatch.setattr(instance_mod, "_BLOCK_BYTES", block_bytes)
            assert build_instance(table, fac).open_costs.tobytes() == whole.tobytes()

    def test_explicit_costs_respected(self, rng):
        table = RawTable(rng.random((4, 2)), np.zeros(4, dtype=np.int64), ("g",), ("a", "b"))
        inst = build_instance(table, rng.random((2, 2)), np.array([1.0, 2.0]))
        assert inst.open_costs.tolist() == [1.0, 2.0]
