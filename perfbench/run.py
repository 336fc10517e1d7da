#!/usr/bin/env python3
"""fairfl benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload fl-synthetic --seed 0 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``fairfl`` from its
``src/`` directory, single process and single threaded.  Each run prepares
every instance of the workload (timed as set-up), runs it through the CLI's
own entry points up to the written sweep CSV (timed as the run), then checks
every cell outside the timed spans.  Passes over the workload repeat until
``--seconds`` have been measured.  With ``--trace 1`` it runs each instance
untraced and then traced, and reports the per-layer metrics of
BENCHMARK.json instead of the end-to-end ones.  The last line of standard
output is the JSON result; the exit code is 1 when any check fails.

Other modes (not timed workloads):
    --check-jobs          sweep CSV bytes with --jobs 2 equal those with --jobs 1
    --record-reference    store this seed's LP objectives in reference.json
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
STATE = Path(".perfbench")  # relative to ROOT, so no absolute path lands in the CSVs
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> dict:
    """One thread for every numeric pool; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_program():
    pkg = ROOT / "src" / "fairfl"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no fairfl package under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import fairfl
    import fairfl.cli as cli

    if Path(fairfl.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported fairfl from {fairfl.__file__}, not from {pkg}")
    return cli


def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def source_hash() -> str:
    """Identifies the program and benchmark sources a run was made from."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "machine": platform.machine(),
    }


class Capture:
    """Keeps each cell's solution for the output checks.

    The sweep path discards solutions after writing their record, so the
    checks need this one hook on ``fairfl.cli.run_algorithm`` in every run;
    it reads no clock and adds a dict insert per cell.
    """

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.run_algorithm
        self.solutions: dict = {}

    def __call__(self, algo, inst, budgets, params):
        sol = self.original(algo, inst, budgets, params)
        self.solutions[(algo, tuple(budgets.per_group))] = sol
        return sol

    def __enter__(self):
        self.cli.run_algorithm = self
        return self

    def __exit__(self, *exc):
        self.cli.run_algorithm = self.original


class Bench:
    """One workload at one seed: its instances, their timings and checks."""

    def __init__(self, cli, wl, seed: int, reference: dict):
        import workloads

        self.cli, self.wl, self.seed = cli, wl, seed
        self.sweeps = wl.sweeps(seed, STATE / "data")
        self.reference = reference.get(wl.name, {}).get(str(seed))
        self.plans = {s.index: workloads.plan(cli, wl, s, STATE / "out") for s in self.sweeps}
        self.planned = {
            idx: sum(len(cfg["pcts"]) * len(cfg["algos"]) for _, cfg in plans)
            for idx, plans in self.plans.items()
        }
        self.setup_s = {s.index: [] for s in self.sweeps}
        self.run_s = {s.index: [] for s in self.sweeps}
        self.traced_run_s = {s.index: [] for s in self.sweeps}
        self.digests: dict[int, list[str]] = {}
        self.lp_values: dict[int, list[float]] = {}
        self.records: list = []      # first pass only: the quality metrics
        self.attempted = 0
        self.bad: dict[int, set] = {}  # execution -> indices of its failed cells
        self.first_execution: dict[int, int] = {}
        self.executions = 0
        self.passes = 0

    @property
    def failed(self) -> int:
        return sum(map(len, self.bad.values()))

    def run_pass(self, capture: Capture, tracer=None) -> None:
        """One pass over the sweeps.  With a tracer each sweep runs untraced
        and then traced, back to back, so that drift in the host's speed
        hits both alike."""
        for sweep in self.sweeps:
            timed = self._run_sweep(sweep, capture)
            if timed:
                self.setup_s[sweep.index].append(timed[0])
                self.run_s[sweep.index].append(timed[1])
            if tracer is not None:
                tracer.install()
                try:
                    timed = self._run_sweep(sweep, capture, tracer)
                finally:
                    tracer.uninstall()
                if timed:
                    self.traced_run_s[sweep.index].append(timed[1])
        self.passes += 1

    def _run_sweep(self, sweep, capture, tracer=None):
        """Set up and run one sweep, then check it; (setup_s, run_s), or
        None when the program raised."""
        import checks
        import workloads

        execution = self.executions
        self.executions += 1
        self.first_execution.setdefault(sweep.index, execution)
        plans = self.plans[sweep.index]
        all_cells = range(self.planned[sweep.index])
        self.attempted += len(all_cells)
        capture.solutions.clear()
        gc.collect()
        try:
            span = tracer.open("bench.setup") if tracer else None
            start = time.perf_counter()
            try:
                inst, _ = self.cli.prepare_instance(plans[0][1])
            finally:
                setup = time.perf_counter() - start
                if tracer:
                    tracer.close(span)
            span = tracer.open("bench.run") if tracer else None
            start = time.perf_counter()
            try:
                outputs = workloads.run_instance(self.cli, self.wl, plans, inst)
            finally:
                run = time.perf_counter() - start
                if tracer:
                    tracer.close(span)
        except Exception:
            traceback.print_exc()
            print(f"FAIL {self.wl.name}[{sweep.index}]: the program raised; "
                  f"all {len(all_cells)} cells count as failed", file=sys.stderr)
            self.bad.setdefault(execution, set()).update(all_cells)
            return None

        digests = []
        offset = 0
        for out in outputs:
            failures = checks.check_cells(inst, out.records, capture.solutions,
                                          out.problem, workloads.EPSILON)
            if self.wl.kind == "fl":
                reference = self.reference[sweep.index] if self.reference else None
                for pos, msgs in checks.check_lp_objectives(out.records, reference).items():
                    failures.setdefault(pos, []).extend(msgs)
                self.lp_values[sweep.index] = checks.lp_values(out.records)
            for pos, msgs in sorted(failures.items()):
                rec = out.records[pos]
                print(f"FAIL {self.wl.name}[{sweep.index}] {rec.algo} pct={rec.pct:g}: "
                      + "; ".join(msgs), file=sys.stderr)
                self.bad.setdefault(execution, set()).add(offset + pos)
            offset += len(out.records)
            digests.append(checks.csv_digest(out.path))
            if self.passes == 0 and tracer is None:
                self.records.extend(out.records)
        if offset != len(all_cells):
            print(f"FAIL {self.wl.name}[{sweep.index}]: {offset} cells written, "
                  f"{len(all_cells)} planned", file=sys.stderr)
            self.bad.setdefault(execution, set()).update(all_cells)
        if self.digests.setdefault(sweep.index, digests) != digests:
            print(f"FAIL {self.wl.name}[{sweep.index}]: sweep CSV bytes differ between passes",
                  file=sys.stderr)
            self.bad.setdefault(execution, set()).update(all_cells)
        return setup, run

    def check_stored_digests(self) -> None:
        """CSV bytes (ms column removed) must repeat across runs made from
        the same sources; digests persist in the checkout's state directory."""
        path = STATE / "digests.json"
        try:
            store = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            store = {}
        key = f"{self.wl.name}|{self.seed}|{source_hash()}"
        stored = store.setdefault(key, {})
        for idx, digests in sorted(self.digests.items()):
            if stored.setdefault(str(idx), digests) != digests:
                print(f"FAIL {self.wl.name}[{idx}]: sweep CSV bytes differ from an earlier "
                      "run of the same sources", file=sys.stderr)
                self.bad.setdefault(self.first_execution[idx], set()).update(
                    range(self.planned[idx]))
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def per_sweep(times: dict) -> list[float]:
        return [statistics.median(v) for _, v in sorted(times.items()) if v]

    def end_to_end(self) -> dict:
        setups = self.per_sweep(self.setup_s)
        runs = self.per_sweep(self.run_s)
        return {
            "setup_s": statistics.median(setups) if setups else None,
            "run_s": statistics.fmean(runs) if runs else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cell_ok_ratio": 1.0 - self.failed / self.attempted,
            **quality(self.records),
        }


def quality(records) -> dict:
    """Deterministic guards: an optimisation may not buy speed with worse
    solutions.  The LP ratios are 1.0 on a workload without an LP."""
    lpr = [r.cost / r.lp_obj for r in records if r.algo == "lpr-f" and r.lp_obj]
    gdf = [r.cost / r.lp_obj for r in records if r.algo == "gdf-f" and r.lp_obj]
    fair = [r.unfair for r in records if r.algo in ("lpr-f", "gdf-f", "rls-f")]
    return {
        "cost_sum": sum(r.cost for r in records),
        "lp_gap_lpr_f_max": max(lpr) if lpr else 1.0,
        "lp_gap_gdf_f_median": statistics.median(gdf) if gdf else 1.0,
        "unfairness_fair_max": max(fair) if fair else None,
    }


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def record_reference(bench: Bench) -> None:
    if bench.wl.kind != "fl" or bench.failed or bench.reference is not None:
        return
    ref = load_reference()
    ref.setdefault(bench.wl.name, {})[str(bench.seed)] = [
        bench.lp_values[s.index] for s in bench.sweeps
    ]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded lp_obj reference for {bench.wl.name} seed {bench.seed}")


def check_jobs(cli, wl, seed: int) -> int:
    """One-off: sweep CSV bytes with --jobs 2 equal those with --jobs 1,
    apart from the ms column and the embedded jobs and out settings."""
    import checks
    import workloads

    bad = 0
    for sweep in wl.sweeps(seed, STATE / "data"):
        digests = []
        for jobs in (1, 2):
            out = STATE / "out" / f"{wl.name}-{sweep.index}-jobs{jobs}.csv"
            cfg = workloads.sweep_config(cli, sweep, "fl", workloads.FL_ALGOS, out, jobs=jobs)
            inst, _ = cli.prepare_instance(cfg)
            cli.write_records(cli.run_sweep(inst, cfg), cfg, cfg["out"])
            digests.append(checks.csv_digest(out, skip_config=("jobs", "out")))
        same = digests[0] == digests[1]
        bad += not same
        print(f"{wl.name}[{sweep.index}] seed {sweep.seed}: --jobs 2 "
              + ("matches" if same else "DIFFERS from") + " --jobs 1")
    return 1 if bad else 0


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure at least this long; whole passes only")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check-jobs", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    threads = pin_threads()
    os.chdir(ROOT)
    cli = import_program()
    declared = declared_metrics()
    args = parse_args(argv)
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    env = environment(threads)
    print("env " + json.dumps(env, sort_keys=True))
    if args.check_jobs:
        if wl.kind != "fl":
            raise SystemExit("error: --check-jobs needs a facility-location sweep workload")
        return check_jobs(cli, wl, args.seed)

    (STATE / "out").mkdir(parents=True, exist_ok=True)
    bench = Bench(cli, wl, args.seed, load_reference())
    with Capture(cli) as capture:
        if args.trace:
            tracer = Tracer()
            bench.run_pass(capture, tracer)
            untraced = sum(bench.per_sweep(bench.run_s))
            traced = sum(bench.per_sweep(bench.traced_run_s))
        else:
            measured = 0.0
            while bench.passes == 0 or measured < args.seconds:
                bench.run_pass(capture)
                measured = sum(map(sum, bench.run_s.values())) + sum(map(sum, bench.setup_s.values()))
                if not any(bench.run_s.values()):
                    break
    bench.check_stored_digests()
    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = traced / untraced if untraced else None
        metrics["trace.coverage_ratio"] = tracer.coverage("bench.run", traced)
    else:
        metrics = bench.end_to_end()
    if args.record_reference:
        record_reference(bench)

    units = declared[args.trace]
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    for idx in sorted(bench.run_s):
        print(f"instance {idx} seed {bench.sweeps[idx].seed}: setup_s {bench.setup_s[idx]} "
              f"run_s {bench.run_s[idx]}"
              + (f" traced run_s {bench.traced_run_s[idx]}" if args.trace else ""))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"cells attempted = {bench.attempted}, failed = {bench.failed}, passes = {bench.passes}")
    correct = bench.failed == 0 and bench.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
