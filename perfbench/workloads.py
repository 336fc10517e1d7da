"""Workloads: inputs made from a seed, and the timed pass over them.

Every workload runs several instances, each drawn from its own instance
seed ``seed * count + index``, because the cost of one instance depends on
its draw (LP time per pivot varies by up to 2x between draws of the same
size); averaging over draws is what makes one run's figure steady.  With
``--seed 0`` the first instance of each workload is the program's default
(seed 0) instance.  The program only ever sees the generated CSV file or the
synthetic generator's seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

FL_ALGOS = ("lpr-f", "lpr-nf", "gdf-f", "gdf-nf")
GREEDY_ALGOS = ("gdf-f", "gdf-nf")
KM_ALGOS = ("rls-f", "rls-nf", "ls-nf")
EPSILON = 0.1
FACILITIES = 100
K_MEDIAN_K = 5
CSV_ROWS = 6000


@dataclass(frozen=True)
class Sweep:
    """One instance and the percentages it is swept at."""

    index: int
    seed: int
    pcts: tuple[float, ...]
    dataset: str
    n: Optional[int]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "fl": run_sweep of FL_ALGOS; "lpfree": solve path + k-median sweep
    source: str          # "synthetic" or "csv"
    count: int           # instances per run
    pct_sets: tuple[tuple[float, ...], ...]   # instance i uses pct_sets[i % len]
    n: Optional[int] = None

    def sweeps(self, seed: int, data_dir: Path) -> list[Sweep]:
        out = []
        for i in range(self.count):
            inst_seed = seed * self.count + i
            dataset = "synthetic"
            if self.source == "csv":
                dataset = str(write_table(data_dir / f"table-{inst_seed}.csv", CSV_ROWS, inst_seed))
            out.append(Sweep(i, inst_seed, self.pct_sets[i % len(self.pct_sets)], dataset, self.n))
        return out


WORKLOADS = {
    wl.name: wl
    for wl in (
        # The paper's FL sweep, pct 1..10, spread over ten draws of the
        # 550x100 synthetic instance; each draw sweeps two adjacent
        # percentages, so the second LP of each model could start from the
        # first one's basis.
        Workload("fl-synthetic", "fl", "synthetic", 10,
                 tuple((float(p), float(p + 1)) for p in range(1, 10, 2))),
        # No LP at all: greedy through the solve path, then the k-median
        # sweep, on five 4500x100 CSV draws, one percentage each.
        Workload("lpfree-csv", "lpfree", "csv", 5,
                 tuple((float(p),) for p in range(2, 11, 2)), n=4500),
    )
}


def write_table(path: Path, n_rows: int, seed: int) -> Path:
    """Six-feature, two-group (2:1) table, the generator of the large-CSV
    acceptance test."""
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
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c0,c1,c2,c3,c4,c5,grp\n")
        for row, g in zip(features, groups):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{g}\n")
    return path


def sweep_config(cli, sweep: Sweep, problem: str, algos, out: Path, jobs: int = 1) -> dict:
    """The configuration the CLI resolves for the equivalent command line."""
    argv = ["sweep", "--dataset", sweep.dataset, "--problem", problem, "--seed", str(sweep.seed),
            "--m", str(FACILITIES), "--epsilon", str(EPSILON), "--k", str(K_MEDIAN_K),
            "--jobs", str(jobs), "--out", str(out)]
    if sweep.dataset != "synthetic":
        argv += ["--group-col", "grp", "--n", str(sweep.n)]
    for algo in algos:
        argv += ["--algo", algo]
    for pct in sweep.pcts:
        argv += ["--pct", f"{pct:g}"]
    return cli.resolve_config(cli.build_parser().parse_args(argv))


@dataclass
class Output:
    """One written CSV and the records behind it."""

    problem: str
    records: list
    path: Path


def plan(cli, wl: Workload, sweep: Sweep, out_dir: Path) -> list[tuple[str, dict]]:
    """(problem, cfg) of each CSV the sweep writes; the first cfg also
    prepares the instance."""
    stem = out_dir / f"{wl.name}-{sweep.index}"
    if wl.kind == "fl":
        return [("fl", sweep_config(cli, sweep, "fl", FL_ALGOS, Path(f"{stem}.csv")))]
    return [
        ("fl", sweep_config(cli, sweep, "fl", GREEDY_ALGOS, Path(f"{stem}-solve.csv"))),
        ("kmedian", sweep_config(cli, sweep, "kmedian", KM_ALGOS, Path(f"{stem}-kmedian.csv"))),
    ]


def run_instance(cli, wl: Workload, plans, inst) -> list[Output]:
    """The timed part: prepared instance in, written sweep CSVs out."""
    outputs = []
    for problem, cfg in plans:
        if wl.kind == "fl" or problem == "kmedian":
            records = cli.run_sweep(inst, cfg)
        else:
            records = _solve_path(cli, inst, cfg)
        cli.write_records(records, cfg, cfg["out"])
        outputs.append(Output(problem, records, Path(cfg["out"])))
    return outputs


def _solve_path(cli, inst, cfg) -> list:
    """``fairfl solve`` once per (algorithm, percentage), as cmd_solve runs it."""
    from fairfl.instance import unfairness

    params = cli.RunParams(
        epsilon=cfg["epsilon"],
        open_threshold=cfg["open_threshold"],
        gamma=cfg["gamma"],
        eps_guess=cfg["eps_guess"],
        improve_frac=cfg["improve_frac"],
        k=cfg["k"],
    )
    records = []
    for pct in cfg["pcts"]:
        budgets = cli.budgets_from_pct(inst, pct)
        for algo in cfg["algos"]:
            start = time.perf_counter()
            sol = cli.run_algorithm(algo, inst, budgets, params)
            ms = (time.perf_counter() - start) * 1000.0
            records.append(cli.SweepRecord(
                algo, pct, sol.total_cost, None, unfairness(budgets, sol),
                budgets.per_group, sol.outlier_counts(), ms, cfg["seed"],
            ))
    return records
