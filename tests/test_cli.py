import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fairfl.cli import (
    CONFIG_KEYS,
    CSV_HEADER,
    CellCheckError,
    ConfigError,
    _verify_cell,
    budgets_from_pct,
    build_parser,
    main,
    parse_config_file,
    prepare_instance,
    read_instance_csv,
    resolve_config,
)
from fairfl import IntegralSolution, MetricInstance, generate_synthetic, SyntheticConfig
from fairfl import greedy as greedy_mod
from fairfl import instance as instance_mod
from fairfl.lp import LpChain
import fairfl.cli as cli_mod
from conftest import eager_pairs


def small_config(tmp_path, **extra):
    lines = {"n_in": 40, "n_out": 10, "m": 8, "seed": 1}
    lines.update(extra)
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
    return str(path)


def without_out_and_ms(path):
    """A sweep CSV's lines without its ``out`` comment line and ``ms`` column."""
    return [
        line if line.startswith("#") else ",".join(c for i, c in enumerate(line.split(",")) if i != 8)
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if not line.startswith("# out = ")
    ]


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
        # --jobs still parses but is read by nothing: apart from the wall
        # time, the bytes of one output path are those of --jobs 1
        without_ms = lambda p: [",".join(c for i, c in enumerate(r.split(",")) if i != 8)
                                for r in p.read_text().splitlines()]
        four = ["--config", small_config(tmp_path), "--algo", "gdf-f", "--algo", "gdf-nf",
                "--algo", "lpr-f", "--algo", "lpr-nf",
                "--pct", "6", "--pct", "12", "--pct", "20", "--pct", "30"]
        # seed 1 at pct 3 and 4 prices pairs in; lpr-nf alone shares its
        # chain with the fair LP solved for lp_obj
        seed1 = ["--dataset", "synthetic", "--seed", "1", "--pct", "3", "--pct", "4"]
        cases = [(four, {"gdf-f", "gdf-nf", "lpr-f", "lpr-nf"}, 4),
                 (seed1 + ["--algo", "lpr-f", "--algo", "lpr-nf"], {"lpr-f", "lpr-nf"}, 2),
                 (seed1 + ["--algo", "lpr-nf"], {"lpr-nf"}, 2)]
        out = tmp_path / "s.csv"
        for args, algos, n_pcts in cases:
            assert main(["sweep", *args, "--out", str(out), "--jobs", "1"]) == 0
            serial = without_ms(out)
            assert main(["sweep", *args, "--out", str(out), "--jobs", "2"]) == 0
            assert without_ms(out) == serial
            assert not any(line.startswith("# jobs") for line in serial)
            _, _, rows = read_rows(str(out))
            assert {r[0] for r in rows} == algos
            assert len({r[3] for r in rows}) == n_pcts and "" not in {r[3] for r in rows}

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_free_run_runs_once_in_the_calling_process(self, tmp_path, monkeypatch, jobs):
        """The LP's clock start and both GDF algorithms read one free run."""
        built, original = [], greedy_mod._free_run
        monkeypatch.setattr(greedy_mod, "_free_run", lambda inst: built.append(1) or original(inst))
        args = ["sweep", "--config", small_config(tmp_path), "--algo", "lpr-f", "--algo", "lpr-nf",
                "--algo", "gdf-f", "--algo", "gdf-nf", "--pct", "5", "--pct", "15", "--jobs", jobs,
                "--out", str(tmp_path / "s.csv")]
        assert main(args) == 0
        assert len(built) == 1

    # small_config's groups have 40 and 10 clients: pct 5 caps them at (2, 1)
    # and pct 15 at (6, 2), or 3 and 8 in all
    @pytest.mark.parametrize("algos, expected", [
        (["lpr-f", "lpr-nf"],
         [("lpr-f", (2, 1)), ("per_group", (2, 1)), ("per_group", (2, 1)),
          ("lpr-f", (6, 2)), ("per_group", (6, 2)), ("per_group", (6, 2)),
          ("lpr-nf", (2, 1)), ("aggregate", (3,)), ("lpr-nf", (6, 2)), ("aggregate", (8,)), "close"]),
        (["lpr-nf"],
         [("per_group", (2, 1)), ("per_group", (6, 2)),
          ("lpr-nf", (2, 1)), ("aggregate", (3,)), ("lpr-nf", (6, 2)), ("aggregate", (8,)), "close"]),
        (["gdf-f"],
         [("per_group", (2, 1)), ("per_group", (6, 2)), "close", ("gdf-f", (2, 1)), ("gdf-f", (6, 2))]),
    ], ids=["lpr-f,lpr-nf", "lpr-nf", "gdf-f"])
    def test_lp_chain_call_sequence(self, tmp_path, monkeypatch, algos, expected):
        """Each cell (algorithm and budgets), each ``LpChain.solve`` (fairness
        mode and budget rows) and each chain release, in order: the fair pass
        (lpr-f's cells with lp_obj, or lp_obj alone), then lpr-nf's cells, on
        one chain released before any other algorithm runs."""
        events, chains = [], set()
        solve, close, run_algorithm = LpChain.solve, LpChain.close, cli_mod.run_algorithm

        def recording_solve(chain, model, *args, **kwargs):
            chains.add(id(chain))
            events.append((model.fairness, tuple(model.budget_rhs.tolist())))
            return solve(chain, model, *args, **kwargs)

        monkeypatch.setattr(LpChain, "solve", recording_solve)
        monkeypatch.setattr(LpChain, "close", lambda chain: events.append("close") or close(chain))
        monkeypatch.setattr(cli_mod, "run_algorithm",
                            lambda algo, inst, budgets, params: events.append((algo, budgets.per_group))
                            or run_algorithm(algo, inst, budgets, params))
        args = ["sweep", "--config", small_config(tmp_path), "--pct", "5", "--pct", "15",
                "--out", str(tmp_path / "s.csv")]
        assert main(args + [arg for algo in algos for arg in ("--algo", algo)]) == 0
        assert events == expected
        assert len(chains) == 1

    @pytest.mark.parametrize("key, flags, file_value, named", [
        ("pcts", ["--pct", "5", "--pct", "5.0"], "5, 5", "5"),
        ("algos", ["--algo", "gdf-f", "--algo", "lpr-f", "--algo", "gdf-f"], "gdf-f, lpr-f, gdf-f", "gdf-f"),
    ], ids=["pcts", "algos"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_repeated_item_exits_2(self, tmp_path, capsys, key, flags, file_value, named, source):
        # each algorithm and percentage runs once, so a repeat would write its rows twice
        cfg = small_config(tmp_path, **({key: file_value} if source == "file" else {}))
        others = {"pcts": ["--algo", "gdf-f"], "algos": ["--pct", "5"]}[key]
        out = tmp_path / "s.csv"
        args = ["sweep", "--config", cfg, *others, *(flags if source == "flag" else []), "--out", str(out)]
        assert main(args) == 2
        assert f"{key!r} names {named} more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_ell_exits_2(self, tmp_path, capsys, source):
        cfg = small_config(tmp_path, **({"ell": "3,3"} if source == "file" else {}))
        flags = ["--ell", "3,3"] if source == "flag" else []
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", cfg, "--algo", "gdf-f", "--pct", "5", *flags, "--out", str(out)]) == 2
        assert "sweep takes --pct" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_pct_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--algo", "gdf-f", "--pct", "150"]) == 2

    def test_missing_pct_exits_2(self, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--algo", "gdf-f"]) == 2

    def test_out_is_a_directory_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--algo", "gdf-f", "--pct", "5", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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


_INCONSISTENT_SOLVER = """
import sys
from dataclasses import replace
import numpy as np
import fairfl.cli as cli
from fairfl.instance import same_points

fault = sys.argv.pop(1)
solve = cli.run_algorithm

def inconsistent(algo, inst, budgets, params):
    sol = solve(algo, inst, budgets, params)
    if fault == "cost":
        return replace(sol, connection_cost=sol.connection_cost + 1.0)
    # the same points with every client in one group: its outlier counts are
    # not those of the cell's instance
    merged = same_points(inst, groups=np.zeros(inst.n_clients, dtype=np.int64))
    return replace(sol, inst=merged)

cli.run_algorithm = inconsistent
sys.exit(cli.main(sys.argv[1:]))
"""


class TestCellVerification:
    @pytest.mark.parametrize("verb", ["sweep", "solve"])
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    @pytest.mark.parametrize("fault,message", [
        ("cost", "gdf-f at pct 10: reported cost"),
        ("outliers", "gdf-f at pct 10: outlier counts"),
    ])
    def test_inconsistent_solution_exits_3(self, tmp_path, verb, flags, fault, message):
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, *flags, "-c", _INCONSISTENT_SOLVER, fault, verb,
             "--config", small_config(tmp_path), "--algo", "gdf-f", "--pct", "10",
             "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
        assert out.returncode == 3, out.stderr
        assert message in out.stderr

    def test_outlier_sets_must_be_the_unassigned_clients(self):
        # client 1 is dropped; the solution files it under group 0 of its own
        # instance, while the cell's instance puts it in group 1.  The cost
        # (opening 1 plus distances 0 and 2) agrees either way.
        coords, facility = np.array([[0.0], [5.0], [2.0]]), np.array([[0.0]])
        inst = MetricInstance(coords, [0, 1, 0], facility, [1.0])
        other = MetricInstance(coords, [0, 0, 1], facility, [1.0])
        dropped = np.array([False, True, False])
        sol = IntegralSolution(other, frozenset({0}), dropped, 1.0, 2.0)
        with pytest.raises(CellCheckError, match=r"gdf-f at pct 10: outlier counts \(1, 0\) != "
                                                 r"dropped clients per group \(0, 1\)"):
            _verify_cell("gdf-f", 10.0, inst, sol, 3.0, "fl")
        _verify_cell("gdf-f", 10.0, inst, replace(sol, inst=inst), 3.0, "fl")


_LP_STACK_AFTER = """
import json
import sys

if sys.argv[1] == "blocked":  # as if scipy were older than 1.15
    sys.modules["scipy.optimize._highspy._core"] = None
import fairfl
import fairfl.cli

def lp_stack():
    names = ("scipy.optimize", "scipy.optimize._highspy._core", "scipy.sparse",
             "multiprocessing", "concurrent.futures")
    return [name for name in names if name in sys.modules]

print(json.dumps([None, lp_stack()]))
for argv in json.loads(sys.argv[2]):
    print(json.dumps([fairfl.cli.main(argv), lp_stack()]), flush=True)
"""


def _lp_stack_after(tmp_path, argvs, mode="plain"):
    """Run ``argvs`` through ``main`` in one fresh process; each verb's exit
    code and the LP and process-pool modules loaded after it, after the
    import first."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", _LP_STACK_AFTER, mode, json.dumps(argvs)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("[")]
    return [tuple(line) for line in lines], out.stderr


_AFTER_AN_LP = """
import json
import sys

import fairfl.cli
import fairfl.lp

assert fairfl.cli.main(sys.argv[1:]) == 0
after = {"linprog_bound": "linprog" in vars(fairfl.lp), "optimize": "scipy.optimize" in sys.modules}
core = sys.modules["scipy.optimize._highspy._core"]
import scipy.optimize
from scipy.optimize._highspy import _core

after["same_core"] = _core is core
after["same_basis_status"] = fairfl.lp.HighsBasisStatus is _core.HighsBasisStatus
res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=[(0, 1)] * 2)
after["linprog"] = [res.status, res.x.tolist()]
print(json.dumps(after))
"""


def _after_an_lp(tmp_path):
    """Solve with lpr-f in a fresh process, then import ``scipy.optimize``;
    what the process held before and after that import."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = ["solve", "--config", small_config(tmp_path), "--algo", "lpr-f", "--pct", "10"]
    out = subprocess.run(
        [sys.executable, "-c", _AFTER_AN_LP, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300,
        cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


class TestLpStackLoadsOnFirstLp:
    """scipy's compiled HiGHS bindings load with the first LP, and neither
    ``scipy.optimize`` nor ``scipy.sparse`` does: the LP-free algorithms and
    verbs run without any of them.  No verb loads ``multiprocessing`` or
    ``concurrent.futures``, whatever ``--jobs`` is: a sweep runs in one
    process."""

    def test_lp_free_verbs_load_no_lp_stack(self, tmp_path):
        cfg = small_config(tmp_path, k=2)
        (tmp_path / "tiny").mkdir()
        tiny = small_config(tmp_path / "tiny", n_in=6, n_out=3, m=4)
        argvs = [["solve", "--config", cfg, "--algo", algo, "--pct", "10"] for algo in ("gdf-f", "gdf-nf")]
        argvs += [["solve", "--config", cfg, "--problem", "kmedian", "--algo", algo, "--pct", "10"]
                  for algo in ("rls-f", "rls-nf", "ls-nf")]
        argvs += [
            ["sweep", "--config", cfg, "--problem", "kmedian", "--algo", "rls-f", "--algo", "ls-nf",
             "--pct", "5", "--pct", "10", "--out", "km.csv"],
            ["sweep", "--config", cfg, "--problem", "kmedian", "--algo", "rls-f", "--algo", "ls-nf",
             "--pct", "5", "--pct", "10", "--jobs", "2", "--out", "km2.csv"],
            ["generate", "--config", cfg, "--out", "inst.csv"],
            ["oracle", "--config", tiny, "--pct", "20"],
        ]
        steps, _ = _lp_stack_after(tmp_path, argvs)
        assert steps == [(None, [])] + [(0, [])] * len(argvs)

    def test_lpr_f_loads_the_lp_stack(self, tmp_path):
        cfg = small_config(tmp_path)
        fl = ["--algo", "lpr-f", "--algo", "lpr-nf", "--algo", "gdf-f", "--algo", "gdf-nf",
              "--pct", "5", "--pct", "10", "--jobs", "2", "--out", "fl.csv"]
        argvs = [["solve", "--config", cfg, "--algo", "lpr-f", "--pct", "10"], ["sweep", "--config", cfg, *fl]]
        steps, _ = _lp_stack_after(tmp_path, argvs)
        assert steps == [(None, [])] + [(0, ["scipy.optimize._highspy._core"])] * 2

    def test_dump_mps_loads_the_highs_core_alone(self, tmp_path):
        # the dump reads the solver's own numpy matrix assembly
        cfg = small_config(tmp_path)
        argv = ["solve", "--config", cfg, "--algo", "lpr-nf", "--pct", "10", "--dump-mps", "model.mps"]
        steps, _ = _lp_stack_after(tmp_path, [argv])
        assert steps == [(None, []), (0, ["scipy.optimize._highspy._core"])]

    def test_scipy_optimize_reuses_the_loaded_bindings(self, tmp_path):
        """A later ``import scipy.optimize`` finds the bindings the LP
        loaded, the same module object, and its ``linprog`` solves."""
        after = _after_an_lp(tmp_path)
        assert not after["optimize"]
        assert after["same_core"] and after["same_basis_status"]
        assert after["linprog"] == [0, [1.0, 0.0]]

    def test_solve_path_binds_no_linprog(self, tmp_path):
        """``fairfl.lp.linprog``, the tracer's patch point, resolves through
        the module's ``__getattr__``; an untraced solve never binds it."""
        assert not _after_an_lp(tmp_path)["linprog_bound"]

    def test_missing_highs_bindings_fail_only_the_lp(self, tmp_path):
        cfg = small_config(tmp_path, k=2)
        argvs = [
            ["solve", "--config", cfg, "--algo", "gdf-f", "--pct", "10"],
            ["solve", "--config", cfg, "--algo", "lpr-f", "--pct", "10"],
            ["solve", "--config", cfg, "--problem", "kmedian", "--algo", "ls-nf", "--pct", "10"],
        ]
        steps, err = _lp_stack_after(tmp_path, argvs, mode="blocked")
        assert [code for code, _ in steps] == [None, 0, 3, 0]
        assert "solver error: the LP solver needs scipy >= 1.15" in err
        assert "scipy.optimize._highspy._core" in err


class TestPairsOnFirstRead:
    """Set-up prunes the instance, but its pairs are computed when an LP
    first reads them; LP paths see the pairs an eagerly pruned instance has."""

    def test_lp_free_verbs_compute_no_pairs(self, tmp_path, monkeypatch):
        calls, prepared = [], []
        real_pairs, real_prepare = instance_mod._below_median_pairs, cli_mod.prepare_instance
        monkeypatch.setattr(instance_mod, "_below_median_pairs", lambda d: calls.append(1) or real_pairs(d))
        monkeypatch.setattr(cli_mod, "prepare_instance",
                            lambda cfg: prepared.append(real_prepare(cfg)) or prepared[-1])
        cfg = small_config(tmp_path, k=2)
        argvs = [["solve", "--config", cfg, "--algo", algo, "--pct", "10"] for algo in ("gdf-f", "gdf-nf")]
        argvs += [["solve", "--config", cfg, "--problem", "kmedian", "--algo", algo, "--pct", "10"]
                  for algo in ("rls-f", "rls-nf", "ls-nf")]
        argvs.append(["sweep", "--config", cfg, "--problem", "kmedian", "--algo", "rls-f", "--algo", "ls-nf",
                      "--pct", "5", "--pct", "10", "--out", str(tmp_path / "km.csv")])
        for argv in argvs:
            assert main(argv) == 0
        assert calls == []
        assert len(prepared) == len(argvs)
        assert all(inst.pruned for inst, _ in prepared)
        # an LP reads them: lpr-f, an FL sweep's lp_obj (gdf-f alone), --dump-mps
        calls.clear()
        lp_argvs = [
            ["solve", "--config", cfg, "--algo", "lpr-f", "--pct", "10"],
            ["sweep", "--config", cfg, "--algo", "gdf-f", "--pct", "10", "--out", str(tmp_path / "fl.csv")],
            ["solve", "--config", cfg, "--algo", "gdf-nf", "--pct", "10", "--dump-mps", str(tmp_path / "m.mps")],
        ]
        for k, argv in enumerate(lp_argvs, 1):
            assert main(argv) == 0
            assert len(calls) == k

    def test_lp_paths_match_an_eagerly_pruned_instance(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        # seed 1 at pct 3 and 4 prices pairs in
        sweeps = [
            ["--config", cfg, "--algo", "gdf-f", "--pct", "5", "--pct", "15"],
            ["--dataset", "synthetic", "--seed", "1", "--pct", "3", "--pct", "4", "--algo", "lpr-f", "--algo", "lpr-nf"],
            ["--config", cfg, "--algo", "gdf-f", "--algo", "lpr-f", "--algo", "lpr-nf",
             "--pct", "10", "--pct", "20"],
        ]
        dumps = [["--config", cfg, "--algo", algo, "--pct", "10"] for algo in ("gdf-f", "lpr-nf")]

        def outputs():
            got = []
            for k, args in enumerate(sweeps):
                out = tmp_path / f"sweep{k}.csv"
                assert main(["sweep", *args, "--out", str(out)]) == 0
                got.append(without_out_and_ms(out))
            for k, args in enumerate(dumps):
                mps = tmp_path / f"model{k}.mps"
                assert main(["solve", *args, "--dump-mps", str(mps)]) == 0
                got.append(mps.read_bytes())
            return got

        lazy = outputs()
        _, _, rows = read_rows(str(tmp_path / "sweep0.csv"))
        assert all(r[3] for r in rows)  # the gdf-f sweep carries lp_obj
        monkeypatch.setattr(instance_mod, "_below_median_pairs", eager_pairs)
        assert outputs() == lazy


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

    @pytest.mark.parametrize("value", [";;", ""], ids=["two-chars", "empty"])
    def test_delimiter_not_one_character_exits_2(self, tmp_path, capsys, value):
        data, cfg = tmp_path / "t.csv", tmp_path / "c.txt"
        data.write_text("a,b,grp\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n", encoding="utf-8")
        cfg.write_text(f"delimiter = {value}\n", encoding="utf-8")
        args = ["sweep", "--config", str(cfg), "--dataset", str(data), "--group-col", "grp", "--m", "2",
                "--algo", "gdf-f", "--pct", "10"]
        assert main(args) == 2
        assert f"error: bad value for 'delimiter': {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("verb,key,value", [
        (["solve", "--algo", "gdf-f"], "problem", "fl_typo"),
        (["oracle"], "problem", "fl_typo"),
        (["sweep", "--algo", "gdf-f"], "facility_cost", "uniform-dmax"),
        (["solve", "--algo", "gdf-f"], "algos", "gdf-f, gdf_f"),
        (["sweep"], "algos", "gdf-f, gdf_f"),
    ], ids=["solve-problem", "oracle-problem", "sweep-facility_cost", "solve-algos", "sweep-algos"])
    def test_file_value_outside_choices_exits_2(self, tmp_path, capsys, verb, key, value):
        cfg = small_config(tmp_path, n_in=6, n_out=3, m=4, **{key: value})
        assert main([*verb, "--config", cfg, "--pct", "20"]) == 2
        assert f"bad value for {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, first, second, flags", [
        ("algos", "lpr-f", "gdf-f", []),
        ("seed", "1", "2", ["--algo", "gdf-f"]),
    ], ids=["list", "scalar"])
    def test_key_set_twice_exits_2(self, tmp_path, capsys, key, first, second, flags):
        # keeping either line would run a sweep the other line did not ask for
        path = tmp_path / "c.txt"
        path.write_text(f"n_in = 6\n{key} = {first}\nn_out = 3\n{key} = {second}\n", encoding="utf-8")
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", str(path), *flags, "--pct", "20", "--out", str(out)]) == 2
        assert f"error: {path}:4: {key!r} is already set on line 2" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_is_no_key(self, tmp_path, capsys):
        # --jobs still parses, unlisted and read by nothing; a file's jobs is an unknown key
        assert "jobs" not in CONFIG_KEYS
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert "jobs" not in capsys.readouterr().out
        cfg = small_config(tmp_path, n_in=6, n_out=3, m=4, jobs=1)
        assert main(["sweep", "--config", cfg, "--algo", "gdf-f", "--pct", "20"]) == 2
        assert "unknown key 'jobs'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,file_keys,algo", [
        (["solve", "--algo", "lpr-f", "--problem", "kmedian"], {}, "lpr-f"),
        (["solve", "--algo", "lpr-f"], {"problem": "kmedian"}, "lpr-f"),
        (["sweep", "--algo", "ls-nf", "--algo", "gdf-nf", "--problem", "kmedian"], {}, "gdf-nf"),
        (["sweep"], {"problem": "kmedian", "algos": "ls-nf, gdf-nf"}, "gdf-nf"),
    ], ids=["solve-flag", "solve-file", "sweep-flag", "sweep-file"])
    def test_fl_algorithm_under_kmedian_exits_2(self, tmp_path, capsys, argv, file_keys, algo):
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", small_config(tmp_path, **file_keys), "--pct", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{algo} is a facility-location algorithm" in err and "kmedian" in err
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["rls-f", "rls-nf"])
    @pytest.mark.parametrize("gamma", ["0", "-0.5", "nan", "inf"])
    def test_nonpositive_gamma_exits_2(self, tmp_path, capsys, algo, gamma):
        cfg = small_config(tmp_path)
        args = ["solve", "--config", cfg, "--problem", "kmedian", "--algo", algo, "--pct", "5"]
        assert main([*args, "--gamma", gamma]) == 2
        assert "gamma must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["rls-f", "rls-nf"])
    @pytest.mark.parametrize("eps", ["0", "-0.5", "nan", "inf"])
    def test_nonpositive_or_infinite_eps_guess_exits_2(self, tmp_path, capsys, algo, eps):
        cfg = small_config(tmp_path)
        args = ["solve", "--config", cfg, "--problem", "kmedian", "--algo", algo, "--pct", "5"]
        assert main([*args, "--eps-guess", eps]) == 2
        assert "eps_guess must be positive and finite" in capsys.readouterr().err

    def test_list_flag_parses_like_file(self, tmp_path):
        rng = np.random.default_rng(3)
        raw = tmp_path / "raw.csv"
        raw.write_text("c0,c1,c2,grp\n" + "".join(
            f"{a:.4f},{b:.4f},{c:.4f},{'AB'[i % 3 == 0]}\n" for i, (a, b, c) in enumerate(rng.random((30, 3)))
        ), encoding="utf-8")
        cfg = tmp_path / "c.txt"
        cfg.write_text("feature_cols = c0, c1\n", encoding="utf-8")
        args = ["sweep", "--dataset", str(raw), "--group-col", "grp", "--m", "4",
                "--algo", "gdf-f", "--pct", "10"]
        by_flag, by_file, by_flags = tmp_path / "flag.csv", tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(args + ["--feature-cols", "c0, c1", "--out", str(by_flag)]) == 0
        assert main(args + ["--config", str(cfg), "--out", str(by_file)]) == 0
        assert main(args + ["--feature-cols", "c0", "--feature-cols", "c1", "--out", str(by_flags)]) == 0
        assert "# feature_cols = c0,c1" in without_out_and_ms(by_flag)
        assert without_out_and_ms(by_flag) == without_out_and_ms(by_file) == without_out_and_ms(by_flags)

    def test_embedded_config_block(self, tmp_path):
        # list flags replace the file's lists; every key is written, sorted
        cfg = small_config(tmp_path, pcts="1, 2", algos="lpr-f, ls-nf", epsilon=0.25,
                           feature_cols="c0, c1", prune="no")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--pct", "10", "--pct", "20",
                     "--algo", "gdf-f", "--algo", "gdf-nf", "--out", str(out)]) == 0
        comments, _, rows = read_rows(str(out))
        assert comments == [
            "# M = 100",
            "# algos = gdf-f,gdf-nf",
            "# cost_far = 40.0",
            "# cost_near = 80.0",
            "# dataset = synthetic",
            "# delimiter = ,",
            "# dim = 2",
            "# dump_mps = None",
            "# ell = None",
            "# eps_guess = 0.5",
            "# epsilon = 0.25",
            "# f = 100.0",
            "# facility_cost = None",
            "# feature_cols = c0,c1",
            "# gamma = 0.5",
            "# group_col = None",
            "# improve_frac = 0.01",
            "# in_mean = 0.0",
            "# in_sd = 10.0",
            "# k = 5",
            "# m = 8",
            "# n = None",
            "# n_in = 40",
            "# n_out = 10",
            "# near_radius = 10.0",
            "# open_threshold = 0.5",
            f"# out = {out}",
            "# out_mean = 10.0",
            "# out_sd = 20.0",
            "# pcts = 10.0,20.0",
            "# problem = fl",
            "# prune = False",
            "# seed = 1",
        ]
        assert len(comments) == len(CONFIG_KEYS) == 33
        assert [(r[0], r[1]) for r in rows if r[5] == "all"] == [
            ("gdf-f", "10"), ("gdf-nf", "10"), ("gdf-f", "20"), ("gdf-nf", "20")
        ]

    @pytest.mark.parametrize("verb", ["solve", "sweep", "generate", "oracle", "gap-demo"])
    def test_help(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestSolveAndOracle:
    @pytest.mark.parametrize("group_col", [[], ["--group-col", "g"]], ids=["no-group-col", "group-col"])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unreadable_dataset_reports_its_os_error(self, tmp_path, capsys, where, group_col):
        path = tmp_path / "absent.csv" if where == "missing" else tmp_path
        assert main(["solve", "--dataset", str(path), *group_col, "--algo", "gdf-f", "--pct", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert ("No such file or directory" if where == "missing" else "Is a directory") in err

    def test_dataset_is_a_directory_exits_2(self, tmp_path, capsys):
        argv = ["solve", "--dataset", str(tmp_path), "--group-col", "g", "--algo", "gdf-f", "--pct", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize("verb", ["solve", "oracle"])
    @pytest.mark.parametrize("source", ["flags", "one flag", "file"])
    def test_several_pcts_exit_2_naming_pcts(self, tmp_path, capsys, verb, source):
        # one budget vector only: a second percentage used to be ignored silently
        cfg = small_config(tmp_path, n_in=6, n_out=3, m=4, **({"pcts": "5, 10"} if source == "file" else {}))
        base = [verb, "--config", cfg] + (["--algo", "gdf-f"] if verb == "solve" else [])
        args = base + {"flags": ["--pct", "5", "--pct", "10"], "one flag": ["--pct", "5,10"],
                       "file": []}[source]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "'pcts'" in err and "5, 10" in err
        assert main(args + ["--ell", "1,1"]) == 0  # explicit caps: no percentage is read
        assert main(base + ["--pct", "5"]) == 0  # one flag replaces the file's list

    def test_solve_out_records_what_ran(self, tmp_path):
        # the file's lists are overridden by the one algorithm and percentage
        cfg = small_config(tmp_path, algos="lpr-f, lpr-nf", pcts="1, 2", epsilon=0.25)
        out = tmp_path / "row.csv"
        assert main(["solve", "--config", cfg, "--algo", "gdf-f", "--pct", "10",
                     "--out", str(out)]) == 0
        comments, header, rows = read_rows(str(out))
        assert comments == [
            "# M = 100",
            "# algos = gdf-f",
            "# cost_far = 40.0",
            "# cost_near = 80.0",
            "# dataset = synthetic",
            "# delimiter = ,",
            "# dim = 2",
            "# dump_mps = None",
            "# ell = None",
            "# eps_guess = 0.5",
            "# epsilon = 0.25",
            "# f = 100.0",
            "# facility_cost = None",
            "# feature_cols = None",
            "# gamma = 0.5",
            "# group_col = None",
            "# improve_frac = 0.01",
            "# in_mean = 0.0",
            "# in_sd = 10.0",
            "# k = 5",
            "# m = 8",
            "# n = None",
            "# n_in = 40",
            "# n_out = 10",
            "# near_radius = 10.0",
            "# open_threshold = 0.5",
            f"# out = {out}",
            "# out_mean = 10.0",
            "# out_sd = 20.0",
            "# pcts = 10.0",
            "# problem = fl",
            "# prune = True",
            "# seed = 1",
        ]
        assert header == CSV_HEADER
        assert [r[:2] + r[5:8] for r in rows] == [
            ["gdf-f", "10", "0", "4", "4"], ["gdf-f", "10", "1", "1", "1"],
            ["gdf-f", "10", "all", "5", "5"],
        ]
        # explicit caps: percentage 0 and no percentage list; a repeated --ell extends
        for ell in (["3,1"], ["3", "--ell", "1"]):
            assert main(["solve", "--config", cfg, "--algo", "gdf-nf", "--ell", *ell,
                         "--out", str(out)]) == 0
            comments, _, rows = read_rows(str(out))
            assert "# algos = gdf-nf" in comments and "# pcts = " in comments
            assert "# ell = 3,1" in comments
            assert [r[:2] for r in rows] == [["gdf-nf", "0"]] * 3

    def test_dump_mps(self, tmp_path):
        cfg = small_config(tmp_path)
        target = tmp_path / "model.mps"
        main(["solve", "--config", cfg, "--algo", "lpr-f", "--pct", "10",
              "--dump-mps", str(target)])
        text = target.read_text()
        assert text.startswith("NAME") and text.rstrip().endswith("ENDATA")

    def test_dump_mps_needs_the_facility_location_problem(self, tmp_path, capsys):
        # the dump is the facility-location LP, which no k-median algorithm solves
        target = tmp_path / "model.mps"
        flag = small_config(tmp_path, k=2)
        argvs = [["solve", "--config", flag, "--dump-mps", str(target)]]
        from_file = tmp_path / "file"
        from_file.mkdir()
        argvs.append(["solve", "--config", small_config(from_file, k=2, dump_mps=target)])
        for argv in argvs:
            assert main([*argv, "--problem", "kmedian", "--algo", "ls-nf", "--pct", "10"]) == 2
            assert "needs --problem fl" in capsys.readouterr().err
            assert not target.exists()

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

    @pytest.mark.parametrize("row", ["client", "facility,,1.0"])
    def test_short_row_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "inst.csv"
        path.write_text(f"kind,group,cost,x0,x1\nclient,a,,0.0,1.0\n{row}\n", encoding="utf-8")
        assert main(["solve", "--dataset", str(path), "--algo", "gdf-f", "--pct", "10"]) == 2
        err = capsys.readouterr().err
        assert f"{path}, line 3: {len(row.split(','))} cells, the header has 5" in err

    @pytest.mark.parametrize("row, message", [
        ("client,a,,0.0,abc", "x1 cell 'abc' is not a number"),
        ("client,a,,,1.0", "x0 cell '' is not a number"),
        ("facility,,,0.0,1.0", "cost cell '' is not a number"),
        ("facility,,cheap,0.0,1.0", "cost cell 'cheap' is not a number"),
        ("depot,,1.0,0.0,1.0", "unknown row kind 'depot'"),
    ])
    def test_bad_cell_exits_2_naming_the_line(self, tmp_path, capsys, row, message):
        path = tmp_path / "inst.csv"
        path.write_text(f"kind,group,cost,x0,x1\nclient,a,,0.0,1.0\n{row}\nfacility,,1.0,0.0,0.0\n",
                        encoding="utf-8")
        assert main(["solve", "--dataset", str(path), "--algo", "gdf-f", "--pct", "10"]) == 2
        assert f"{path}, line 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["kind,group", "kind,group,cost", "kind,group,x0,x1"])
    def test_short_header_exits_2(self, tmp_path, capsys, header):
        path = tmp_path / "inst.csv"
        extra = header.count(",") - 1  # cells after the first two
        path.write_text(f"{header}\nclient,a{',0.0' * extra}\nfacility,{',1.0' * extra}\n", encoding="utf-8")
        assert main(["solve", "--dataset", str(path), "--algo", "gdf-f", "--pct", "10"]) == 2
        assert f"{path}, line 1: the header must be kind,group,cost then coordinate columns" in capsys.readouterr().err

    def test_raw_csv_whose_first_column_is_kind_loads_with_its_group_col(self, tmp_path, capsys):
        path = tmp_path / "kindcol.csv"
        path.write_text("kind,b,grp\n1,0.0,x\n2,1.0,y\n3,4.0,x\n4,5.0,y\n", encoding="utf-8")
        cfg = resolve_config(build_parser().parse_args(
            ["solve", "--dataset", str(path), "--group-col", "grp", "--m", "2", "--algo", "gdf-f", "--pct", "10"]))
        inst, names = prepare_instance(cfg)
        assert names == ("x", "y") and inst.dim == 2 and inst.n_clients == 4
        argv = ["solve", "--dataset", str(path), "--group-col", "grp", "--m", "2", "--algo", "gdf-f", "--pct", "10"]
        assert main(argv) == 0

    def test_byte_order_mark_is_dropped(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(b"\xef\xbb\xbfg,a,b\n" + b"".join(f"{'xy'[i % 2]},{i},{i * i % 7}\n".encode() for i in range(8)))
        argv = ["solve", "--dataset", str(raw), "--group-col", "g", "--m", "2", "--algo", "gdf-f", "--pct", "10"]
        assert main(argv) == 0
        cfg = small_config(tmp_path)
        inst_path = tmp_path / "inst.csv"
        assert main(["generate", "--config", cfg, "--out", str(inst_path)]) == 0
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + inst_path.read_bytes())
        argv = ["solve", "--dataset", str(inst_path), "--algo", "gdf-f", "--pct", "10"]
        want, want_names = prepare_instance(resolve_config(build_parser().parse_args(argv)))
        argv[2] = str(marked)
        got, got_names = prepare_instance(resolve_config(build_parser().parse_args(argv)))
        assert got_names == want_names
        for name in ("client_coords", "groups", "facility_coords", "open_costs"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_duplicate_header_name_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("a,a,g\n1,2,x\n3,4,y\n", encoding="utf-8")
        argv = ["solve", "--dataset", str(path), "--group-col", "g", "--m", "2", "--algo", "gdf-f", "--pct", "10"]
        assert main(argv) == 2
        assert "column 'a' appears more than once in header" in capsys.readouterr().err

    def test_feature_col_given_twice_exits_2(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text("a,b,g\n1,2,x\n3,4,y\n", encoding="utf-8")
        # a repeated --feature-cols flag extends the list, as one list naming a column twice does
        for named in (["a,b,a"], ["a", "--feature-cols", "a"]):
            argv = ["solve", "--dataset", str(path), "--group-col", "g", "--feature-cols", *named,
                    "--m", "2", "--algo", "gdf-f", "--pct", "10"]
            assert main(argv) == 2
            assert "feature column 'a' is named more than once" in capsys.readouterr().err

    def test_bad_cell_after_a_quoted_line_break_exits_2_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "multiline.csv"
        path.write_text('a,g\n1,"x\ny"\noops,z\n', encoding="utf-8")
        argv = ["solve", "--dataset", str(path), "--group-col", "g", "--m", "1", "--algo", "gdf-f", "--pct", "10"]
        assert main(argv) == 2
        assert f"{path}: line 4, column 'a': 'oops' is not numeric" in capsys.readouterr().err

    def test_instance_file_loads_whatever_the_group_col(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "inst.csv"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["solve", "--dataset", str(out), "--group-col", "group", "--algo", "gdf-f", "--pct", "10"]) == 0

    @pytest.mark.parametrize("prune", ["true", "false"])
    def test_uniform_dmax_keeps_the_distance_matrix(self, tmp_path, prune):
        cfg = small_config(tmp_path, facility_cost="uniform_dmax", prune=prune)
        inst, _ = prepare_instance(resolve_config(build_parser().parse_args(["sweep", "--config", cfg])))
        assert "_distances" in vars(inst)  # handed over, not recomputed on first use
        fresh = MetricInstance(inst.client_coords, inst.groups, inst.facility_coords, inst.open_costs)
        assert inst.distances().tobytes() == fresh.distances().tobytes()
        assert np.all(inst.open_costs == fresh.distances().max())

    def test_uniform_dmax_recosts_an_instance_file(self, tmp_path):
        cfg = small_config(tmp_path, n_in=30, n_out=5, dim=6)
        out = tmp_path / "inst.csv"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        argv = ["solve", "--dataset", str(out), "--algo", "gdf-f", "--pct", "10"]
        own, _ = prepare_instance(resolve_config(build_parser().parse_args(argv)))
        assert set(own.open_costs.tolist()) <= {40.0, 80.0}  # the file's costs
        argv += ["--facility-cost", "uniform_dmax"]
        inst, _ = prepare_instance(resolve_config(build_parser().parse_args(argv)))
        assert inst.open_costs.tobytes() == np.full(8, inst.distances().max()).tobytes()
        assert inst.distances().tobytes() == own.distances().tobytes()

    @pytest.mark.parametrize("raw_csv", [False, True], ids=["synthetic", "raw-csv"])
    def test_from_data_exits_2_naming_the_allowed_values(self, tmp_path, capsys, raw_csv):
        argv = ["sweep", "--config", small_config(tmp_path), "--algo", "gdf-f", "--pct", "10",
                "--facility-cost", "from_data"]
        if raw_csv:
            path = tmp_path / "t.csv"
            path.write_text("a,b,grp\n1,2,x\n3,4,y\n5,6,x\n7,8,y\n", encoding="utf-8")
            argv += ["--dataset", str(path), "--group-col", "grp", "--m", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "bad value for 'facility_cost': 'from_data' (expected one of uniform_dmax)" in err

    @pytest.mark.parametrize("prune", ["true", "false"])
    @pytest.mark.parametrize("facility_cost", [None, "uniform_dmax"])
    def test_raw_csv_set_up_computes_the_matrix_once(self, tmp_path, monkeypatch, prune, facility_cost):
        from fairfl import data as data_mod, instance as instance_mod

        rng = np.random.default_rng(3)
        path = tmp_path / "t.csv"
        rows = (",".join(map(repr, row.tolist())) + f",{'xy'[i % 2]}\n" for i, row in enumerate(rng.random((30, 3))))
        path.write_text("a,b,c,grp\n" + "".join(rows), encoding="utf-8")
        shapes = []
        kernel = instance_mod._sq_distances

        def counting(points, centers, out):
            shapes.append(out.shape)
            return kernel(points, centers, out)

        monkeypatch.setattr(instance_mod, "_sq_distances", counting)
        monkeypatch.setattr(data_mod, "_sq_distances", counting)
        extra = {"facility_cost": facility_cost} if facility_cost else {}
        cfg = small_config(tmp_path, group_col="grp", m=4, prune=prune, **extra)
        inst, _ = prepare_instance(resolve_config(build_parser().parse_args(
            ["sweep", "--config", cfg, "--dataset", str(path)])))
        assert shapes.count((4, 30)) == 1 and shapes.count((30, 4)) == 0
        assert "_distances" in vars(inst)  # handed over, not recomputed on first use
        assert inst.open_costs.tobytes() == np.full(4, inst.distances().max()).tobytes()

    def test_n_above_the_row_count_exits_2(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "t.csv"
        rows = (",".join(map(repr, row.tolist())) + f",{'xy'[i % 2]}\n" for i, row in enumerate(rng.random((30, 3))))
        path.write_text("a,b,c,grp\n" + "".join(rows), encoding="utf-8")
        argv = ["solve", "--dataset", str(path), "--group-col", "grp", "--m", "3", "--algo", "gdf-f", "--pct", "10"]
        over = tmp_path / "over.csv"
        assert main([*argv, "--n", "31", "--out", str(over)]) == 2
        assert "cannot sample 31 of 30 rows" in capsys.readouterr().err
        assert not over.exists()
        # a sample of every row keeps the table's order, so only the n line differs
        every, unset = tmp_path / "every.csv", tmp_path / "unset.csv"
        assert main([*argv, "--n", "30", "--out", str(every)]) == 0
        assert main([*argv, "--out", str(unset)]) == 0
        lines = [without_out_and_ms(every), without_out_and_ms(unset)]
        assert "# n = 30" in lines[0] and "# n = None" in lines[1]
        assert [line for line in lines[0] if line != "# n = 30"] == [line for line in lines[1] if line != "# n = None"]

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
