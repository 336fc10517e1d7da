"""The benchmark's tracer patches functions of ``fairfl`` by name from
outside the package; a program change that removes or renames one of them
breaks the benchmark.  This reads ``perfbench/`` and changes nothing there."""

from pathlib import Path

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
