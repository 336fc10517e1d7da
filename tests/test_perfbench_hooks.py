"""The benchmark's tracer patches functions of ``fairfl`` by name from
outside the package, and its output checks read solutions and instances
through the program's own types; a program change that removes or renames
one of them breaks the benchmark.  This reads ``perfbench/`` and changes
nothing there."""

from pathlib import Path

import numpy as np

import fairfl.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _sweep_config(algos, problem):
    argv = ["sweep", "--dataset", "synthetic", "--problem", problem, "--m", "20", "--k", "5",
            "--pct", "2", "--pct", "5"]
    for algo in algos:
        argv += ["--algo", algo]
    return cli.resolve_config(cli.build_parser().parse_args(argv))


def test_tracer_hooks_reach_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        for algos, problem in ((workloads.FL_ALGOS, "fl"), (workloads.KM_ALGOS, "kmedian")):
            cfg = _sweep_config(algos, problem)
            inst, _ = cli.prepare_instance(cfg)
            assert len(cli.run_sweep(inst, cfg)) == len(algos) * 2
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("lp.solves", "greedy.events", "kmedian.ls_calls", "instance.pairs", "cli.cells"):
        assert metrics[name] > 0, name
    assert patched
    for target, attr, original in patched:
        assert getattr(target, attr) is original, (target, attr)


def test_output_checks_read_a_captured_pruned_fl_sweep(monkeypatch):
    # every check runs on every cell here, whereas a benchmark run reaches
    # ``pruned_assignments`` only when a gdf-f cell undercuts lp_obj
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import run
    import workloads

    cfg = _sweep_config(workloads.FL_ALGOS, "fl")
    inst, _ = cli.prepare_instance(cfg)
    assert inst.pruned
    with run.Capture(cli) as capture:
        records = cli.run_sweep(inst, cfg)
    assert len(capture.solutions) == len(records)
    assert checks.check_cells(inst, records, capture.solutions, "fl", workloads.EPSILON) == {}
    assert checks.check_lp_objectives(records, None) == {}
    assert checks.check_lp_objectives(records, checks.lp_values(records)) == {}
    allowed = np.zeros((inst.n_facilities, inst.n_clients), dtype=bool)
    allowed[inst.pair_arrays] = True
    counts = []
    for sol in capture.solutions.values():
        counts.append(checks.pruned_assignments(inst, sol))
        assert counts[-1] == sum(not allowed[i, j] for j, i in sol.assignment.items())
    assert max(counts) > 0  # GDF assigns through pruned pairs here
