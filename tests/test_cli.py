import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairfl.cli import (
    CSV_HEADER,
    ConfigError,
    budgets_from_pct,
    main,
    parse_config_file,
    read_instance_csv,
)
from fairfl import MetricInstance, generate_synthetic, SyntheticConfig

SMALL_SYNTH = [
    "--dataset", "synthetic", "--config", None,  # placeholder, replaced below
]


def small_config(tmp_path, **extra):
    lines = {"n_in": 40, "n_out": 10, "m": 8, "seed": 1}
    lines.update(extra)
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
    return str(path)


def read_rows(path):
    comments, header, rows = [], None, []
    for line in open(path, encoding="utf-8"):
        line = line.rstrip("\n")
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header, rows


class TestGapDemo:
    def test_reports_ratio(self, capsys):
        assert main(["gap-demo", "--f", "100", "--M", "100"]) == 0
        out = capsys.readouterr().out
        values = {ln.split(":")[0]: ln.split(":")[1] for ln in out.splitlines() if ":" in ln}
        assert float(values["lp objective"]) == pytest.approx(1.0, abs=1e-6)
        assert float(values["exact integral cost"]) == pytest.approx(100.0)
        assert float(values["integrality ratio"]) == pytest.approx(100.0)


class TestSweep:
    def test_schema_and_row_counts(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--config", cfg, "--algo", "gdf-f", "--algo", "gdf-nf",
            "--pct", "5", "--pct", "10", "--out", str(out),
        ])
        assert rc == 0
        comments, header, rows = read_rows(str(out))
        assert header == CSV_HEADER
        assert any(c.startswith("# seed = 1") for c in comments)
        # 2 algos x 2 pcts x (2 groups + summary)
        assert len(rows) == 2 * 2 * 3
        groups = [r[5] for r in rows]
        assert groups.count("all") == 4

    def test_unfairness_matches_recomputation(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", cfg, "--algo", "gdf-nf", "--pct", "10", "--out", str(out)])
        _, header, rows = read_rows(str(out))
        per_group = [r for r in rows if r[5] != "all"]
        worst = 1.0
        for r in per_group:
            ell, used = int(r[6]), int(r[7])
            if used > 0:
                worst = math.inf if ell == 0 else max(worst, used / ell)
        assert float(per_group[0][4]) == pytest.approx(worst)

    def test_lp_obj_recorded_for_fl(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--config", cfg, "--algo", "lpr-f", "--pct", "10", "--out", str(out)])
        _, _, rows = read_rows(str(out))
        lp_vals = {r[3] for r in rows}
        assert len(lp_vals) == 1 and "" not in lp_vals
        # LP lower-bounds the rounded cost here (no over-drop at eps=0.1)
        assert float(rows[0][2]) >= float(rows[0][3]) - 1e-6

    def test_kmedian_sweep_three_series_empty_lp_column(self, tmp_path):
        cfg = small_config(tmp_path, k=2)
        out = tmp_path / "km.csv"
        rc = main([
            "sweep", "--config", cfg, "--problem", "kmedian",
            "--algo", "rls-f", "--algo", "rls-nf", "--algo", "ls-nf",
            "--pct", "10", "--out", str(out),
        ])
        assert rc == 0
        _, _, rows = read_rows(str(out))
        assert {r[0] for r in rows} == {"rls-f", "rls-nf", "ls-nf"}
        assert all(r[3] == "" for r in rows)

    def test_empty_algo_list_header_only(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "empty.csv"
        assert main(["sweep", "--config", cfg, "--pct", "5", "--out", str(out)]) == 0
        _, header, rows = read_rows(str(out))
        assert header == CSV_HEADER and rows == []

    def test_deterministic_output_bytes(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--config", cfg, "--algo", "gdf-f", "--algo", "ls-nf",
                "--pct", "5", "--pct", "8"]
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])

        def data_rows(path):  # drop config comments and jittery wall time
            return [
                ",".join(col for i, col in enumerate(line.split(",")) if i != 8)
                for line in path.read_text().splitlines()
                if not line.startswith("#")
            ]

        assert data_rows(out1) == data_rows(out2)

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
        args = ["sweep", "--config", cfg, "--algo", "gdf-f", "--algo", "gdf-nf",
                "--algo", "lpr-f", "--algo", "lpr-nf",
                "--pct", "6", "--pct", "12", "--pct", "20", "--pct", "30"]
        main(args + ["--out", str(out1), "--jobs", "1"])
        main(args + ["--out", str(out2), "--jobs", "2"])
        strip = lambda p: [
            ",".join(c for i, c in enumerate(r.split(",")) if i != 8)
            for r in p.read_text().splitlines()
            if not r.startswith("#") or "jobs" not in r
        ]
        assert strip(out1) == strip(out2)
        _, _, rows = read_rows(str(out1))
        assert {r[0] for r in rows} == {"gdf-f", "gdf-nf", "lpr-f", "lpr-nf"}
        assert len({r[3] for r in rows}) == 4 and "" not in {r[3] for r in rows}

    def test_lp_obj_without_lpr_f_matches_lpr_f_chain(self, tmp_path):
        cfg = small_config(tmp_path)
        pcts = ["--pct", "5", "--pct", "15", "--pct", "25"]
        lp_by_pct = []
        for algo in ("lpr-f", "gdf-f"):
            out = tmp_path / f"{algo}.csv"
            assert main(["sweep", "--config", cfg, "--algo", algo, *pcts, "--out", str(out)]) == 0
            _, _, rows = read_rows(str(out))
            lp_by_pct.append({r[1]: float(r[3]) for r in rows})
        assert lp_by_pct[0].keys() == lp_by_pct[1].keys() == {"5", "15", "25"}
        for pct, value in lp_by_pct[0].items():
            assert lp_by_pct[1][pct] == pytest.approx(value, rel=1e-9)

    def test_bad_pct_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--algo", "gdf-f", "--pct", "150"]) == 2

    def test_missing_pct_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--algo", "gdf-f"]) == 2


class TestSolverErrors:
    def test_greedy_without_next_event_exits_3(self, tmp_path, capsys):
        # every facility infinitely expensive: no event can ever open one
        path = tmp_path / "inst.csv"
        path.write_text(
            "kind,group,cost,x0\nclient,a,,0.0\nclient,a,,1.0\nfacility,,inf,0.5\n",
            encoding="utf-8",
        )
        assert main(["solve", "--dataset", str(path), "--algo", "gdf-f", "--pct", "10"]) == 3
        assert "no next event" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_oracle_without_finite_subset_exits_3(self, tmp_path, flags):
        path = tmp_path / "inst.csv"
        path.write_text(
            "kind,group,cost,x0\nclient,a,,0.0\nclient,a,,1.0\nfacility,,inf,0.5\n",
            encoding="utf-8",
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, *flags, "-m", "fairfl.cli", "oracle", "--dataset", str(path),
             "--pct", "10"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert out.returncode == 3, out.stderr
        assert "no facility subset has a finite cost" in out.stderr


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "# comment line\nepsilon = 0.25\nalgos = gdf-f, lpr-f\n"
            "pcts=1,2.5\nprune = false\nm = 12  # trailing comment\n",
            encoding="utf-8",
        )
        cfg = parse_config_file(str(path))
        assert cfg == {
            "epsilon": 0.25,
            "algos": ["gdf-f", "lpr-f"],
            "pcts": [1.0, 2.5],
            "prune": False,
            "m": 12,
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("volume = 11\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(path))

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg = small_config(tmp_path, epsilon=0.5)
        rc = main(["solve", "--config", cfg, "--algo", "gdf-f", "--pct", "10",
                   "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "unfairness: 1" in out

    def test_bad_config_value_exits_2(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("m = twelve\n", encoding="utf-8")
        assert main(["sweep", "--config", str(path), "--pct", "5"]) == 2


class TestSolveAndOracle:
    def test_solve_report_fields(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["solve", "--config", cfg, "--algo", "lpr-f", "--pct", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        for needle in ("algorithm: lpr-f", "open facilities", "unfairness:", "objective"):
            assert needle in out

    def test_solve_with_explicit_budgets(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        rc = main(["solve", "--config", cfg, "--algo", "gdf-f", "--ell", "3,1"])
        assert rc == 0
        assert "3/3" in capsys.readouterr().out.replace("outliers", "")

    def test_solve_writes_row(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "row.csv"
        main(["solve", "--config", cfg, "--algo", "gdf-f", "--pct", "10", "--out", str(out)])
        _, header, rows = read_rows(str(out))
        assert header == CSV_HEADER
        assert len(rows) == 3

    def test_dump_mps(self, tmp_path):
        cfg = small_config(tmp_path)
        target = tmp_path / "model.mps"
        main(["solve", "--config", cfg, "--algo", "lpr-f", "--pct", "10",
              "--dump-mps", str(target)])
        text = target.read_text()
        assert text.startswith("NAME") and text.rstrip().endswith("ENDATA")

    def test_oracle_verb(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_in=6, n_out=3, m=4)
        rc = main(["oracle", "--config", cfg, "--pct", "20"])
        assert rc == 0
        assert "exact optimum" in capsys.readouterr().out

    def test_oracle_kmedian_verb(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_in=6, n_out=3, m=4, k=2)
        rc = main(["oracle", "--config", cfg, "--problem", "kmedian", "--pct", "20"])
        assert rc == 0
        assert "exact optimum (kmedian)" in capsys.readouterr().out


class TestGenerate:
    def test_roundtrip(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "inst.csv"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        inst, names = read_instance_csv(str(out))
        direct, _ = generate_synthetic(SyntheticConfig(n_in=40, n_out=10, n_facilities=8, seed=1))
        assert names == ("in", "out")
        assert np.allclose(inst.client_coords, direct.client_coords)
        assert np.allclose(inst.open_costs, direct.open_costs)

    def test_generated_file_usable_as_dataset(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "inst.csv"
        main(["generate", "--config", cfg, "--out", str(out)])
        rc = main(["solve", "--dataset", str(out), "--algo", "gdf-f", "--pct", "10"])
        assert rc == 0

    def test_generate_needs_out(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["generate", "--config", cfg]) == 2


class TestBudgets:
    def test_proportional_rounding(self):
        inst, _ = generate_synthetic(SyntheticConfig(n_in=500, n_out=50, n_facilities=2, seed=0))
        budgets = budgets_from_pct(inst, 1.0)
        assert budgets.per_group == (5, 1)  # 0.5 rounds half-up
        assert budgets_from_pct(inst, 10.0).per_group == (50, 5)

    def test_range_check(self):
        inst, _ = generate_synthetic(SyntheticConfig(n_in=5, n_out=5, n_facilities=2, seed=0))
        with pytest.raises(ConfigError):
            budgets_from_pct(inst, 0.0)
        with pytest.raises(ConfigError):
            budgets_from_pct(inst, 100.0)
