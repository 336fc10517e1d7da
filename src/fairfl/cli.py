"""Command-line front end and benchmark harness.

Verbs: ``solve`` (one algorithm, one instance), ``sweep`` (cost/unfairness
rows across outlier percentages), ``generate`` (materialize an instance),
``oracle`` (exact solver on tiny instances), ``gap-demo`` (LP vs integral
optimum on the worst-case family).

Configuration: ``CONFIG_KEYS`` declares every key once, with its parser,
default and allowed values.  A value parses and is checked the same way
whether it comes from a ``--config`` file or from a flag; a flag given wins
over the file, and a list flag replaces the file's list.

Sweep output is CSV with the resolved configuration embedded as leading
``#`` comment lines and the fixed header
``algo,pct,cost,lp_obj,unfairness,group,ell,ell_prime,ms,seed``: one row
per group, then a summary row with group ``all``.  ``lp_obj`` is the fair
LP optimum at that percentage (facility-location sweeps only), taken over
the allowed facility-client pairs only: it lower-bounds the solutions that
keep within the budgets and assign through allowed pairs, while LPR and GDF
assign over the full metric, so on a pruned instance their cost may fall
below it.  Set-up prunes the instance (``prune_pairs``), but its pairs are
computed when an LP first reads them: ``lp_obj``, LPR or ``--dump-mps``.
GDF and the k-median searches never build them.  ``--dump-mps`` writes the
facility-location LP, so it needs ``--problem fl``.  A sweep runs in one
process.  Its LP algorithms share one LP chain, fair then aggregate:
lpr-f's cells (or the fair LP alone, for ``lp_obj``) at every percentage in
order, then lpr-nf's, the LP re-solved warm from one percentage to the next
and the aggregate LP started from the fair LP's optimal basis (see
``fairfl.lp.LpChain``).  Every other algorithm runs after the chain is
released.  A sweep names each algorithm and percentage once.
Facility-location algorithms do not run under ``--problem kmedian``: they
open facilities without the cap k.  Every cell's cost and per-group outlier
counts are re-checked against its solution before the row is written.  Exit
codes: 0 success, 2 configuration error, 3 solver error (or a cell that
fails the re-check).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .data import (
    DataError,
    SyntheticConfig,
    build_instance,
    generate_synthetic,
    load_csv,
    normalize,
    sample_clients,
    select_facilities_kmeans,
)
from .greedy import GreedyError, gdf_f, gdf_nf
from .instance import (
    FACILITY_LOCATION,
    K_MEDIAN,
    IntegralSolution,
    MetricInstance,
    OutlierBudgets,
    prune_pairs,
    solution_cost,
    unfairness,
    uniform_dmax,
)
from .kmedian import LocalSearchError, ls_nf, r_ls_f, r_ls_nf
from .lp import (
    AGGREGATE,
    PER_GROUP,
    LpChain,
    LpError,
    build_flfo_lp,
    build_gap_instance,
    solve_lp,
    write_mps,
)
from .oracle import OracleError, exact_flfo, exact_kmfo
from .rounding import RoundingConfig, RoundingError, lpr_pipeline

FL_ALGOS = ("lpr-f", "lpr-nf", "gdf-f", "gdf-nf")
KM_ALGOS = ("rls-f", "rls-nf", "ls-nf")

CSV_HEADER = ["algo", "pct", "cost", "lp_obj", "unfairness", "group", "ell", "ell_prime", "ms", "seed"]


class ConfigError(Exception):
    pass


class CellCheckError(Exception):
    """A sweep cell's solution disagrees with the figures reported for it."""


@dataclass
class RunParams:
    """Everything an algorithm cell needs besides the instance."""

    epsilon: float
    open_threshold: float
    gamma: float
    eps_guess: float
    improve_frac: float
    k: int
    lp_chain: Optional[LpChain] = None  # shared by the LP solves of one sweep


def _from_config(cls, cfg: dict, **extra):
    """``cls`` with every field named like a configuration key taken from ``cfg``."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}, **extra)


def run_params(cfg: dict) -> RunParams:
    """The algorithm parameters of a resolved configuration."""
    return _from_config(RunParams, cfg)


@dataclass
class SweepRecord:
    algo: str
    pct: float
    cost: float
    lp_obj: Optional[float]
    unfair: float
    ell: tuple[int, ...]
    ell_prime: tuple[int, ...]
    ms: float
    seed: int


# ---------------------------------------------------------------------------
# configuration resolution

def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _list_of(item: Callable[[str], Any]) -> Callable[[str], list]:
    """A parser of comma-separated ``item`` values; whitespace around items is
    stripped and empty items are dropped."""
    def parse(raw: str) -> list:
        return [item(s.strip()) for s in raw.split(",") if s.strip()]
    parse.__name__ = f"{item.__name__} list"  # argparse names the type in its errors
    return parse


class Key(NamedTuple):
    """A configuration key: how its text parses, its default, and the values it
    may take (each item's, for a list key; None for any)."""

    parse: Callable[[str], Any]
    default: Any = None
    allowed: Optional[tuple[str, ...]] = None


# The one declaration of every key.  Config-file values and flags both parse
# through ``parse``, and ``resolve_config`` checks ``allowed`` whatever the
# source, so a value means the same wherever it is given.
CONFIG_KEYS = {
    "dataset": Key(str, "synthetic"),
    "group_col": Key(str),
    "feature_cols": Key(_list_of(str)),
    "n": Key(int),
    "m": Key(int, 100),
    "problem": Key(str, "fl", ("fl", "kmedian")),
    "algos": Key(_list_of(str), [], FL_ALGOS + KM_ALGOS),
    "pcts": Key(_list_of(float), []),
    "epsilon": Key(float, 0.1),
    "open_threshold": Key(float, 0.5),
    "gamma": Key(float, 0.5),
    "eps_guess": Key(float, 0.5),
    "improve_frac": Key(float, 0.01),
    "k": Key(int, 5),
    "seed": Key(int, 0),
    "out": Key(str),
    "facility_cost": Key(str, None, ("uniform_dmax",)),
    "ell": Key(_list_of(int)),
    "prune": Key(_bool, True),
    "delimiter": Key(str, ","),
    # the generator's keys take their parsers and defaults from SyntheticConfig;
    # its n_facilities is ``m`` and its seed is ``seed``
    **{f.name: Key(type(f.default), f.default)
       for f in fields(SyntheticConfig) if f.name not in ("n_facilities", "seed")},
}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment, blank lines ok.
    A key set on two lines raises ``ConfigError``."""
    values, key_lines = {}, {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                if key in key_lines:
                    raise ConfigError(f"{path}:{line_no}: {key!r} is already set on line {key_lines[key]}")
                key_lines[key] = line_no
                try:
                    values[key] = CONFIG_KEYS[key].parse(raw)
                except ValueError:
                    raise ConfigError(f"{path}:{line_no}: bad value for {key!r}: {raw!r}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Every key's value: its flag's if given, else the ``--config`` file's,
    else the default.  A list flag replaces the file's list.  A value outside
    the key's allowed values, a ``delimiter`` that is not one character or a
    negative ``seed`` raises ``ConfigError``, whatever its source."""
    cfg = {key: spec.default for key, spec in CONFIG_KEYS.items()}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key, spec in CONFIG_KEYS.items():
        value = getattr(args, key, None)
        if value is not None and value != []:
            cfg[key] = value
        if spec.allowed:
            for item in cfg[key] if isinstance(cfg[key], list) else [cfg[key]]:
                if item is not None and item not in spec.allowed:
                    raise ConfigError(
                        f"bad value for {key!r}: {item!r} (expected one of {', '.join(spec.allowed)})"
                    )
    if len(cfg["delimiter"]) != 1:
        raise ConfigError(f"bad value for 'delimiter': {cfg['delimiter']!r} (expected one character)")
    if cfg["seed"] < 0:
        raise ConfigError(f"bad value for 'seed': {cfg['seed']} (expected a non-negative integer)")
    return cfg


# ---------------------------------------------------------------------------
# instance preparation

def budgets_from_pct(inst: MetricInstance, pct: float) -> OutlierBudgets:
    """Per-group budgets: pct percent of each group's size, rounded half-up."""
    if not 0 < pct < 100:
        raise ConfigError(f"percentage {pct} outside (0, 100)")
    caps = tuple(
        int(math.floor(pct / 100.0 * len(members) + 0.5)) for members in inst.group_members
    )
    return OutlierBudgets(caps)


def _is_instance_file(path: str, group_col: Optional[str]) -> bool:
    """True when ``path`` is read as an instance file: its header starts
    with ``kind,group,cost``, or with ``kind`` and no ``--group-col`` names
    a raw CSV's column, so that a short instance header gets the instance
    reader's error.  A path that cannot be opened raises its ``OSError``."""
    with open(path, encoding="utf-8-sig") as fh:
        first = [h.strip().lower() for h in fh.readline().split(",")]
    return first[:3] == ["kind", "group", "cost"] or (first[0] == "kind" and not group_col)


def write_instance_csv(inst: MetricInstance, group_names: Sequence[str], path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "group", "cost"] + [f"x{t}" for t in range(inst.dim)])
        for g, coords in zip(inst.groups, inst.client_coords):
            writer.writerow(["client", group_names[g], ""] + [repr(float(v)) for v in coords])
        for cost, coords in zip(inst.open_costs, inst.facility_coords):
            writer.writerow(["facility", "", repr(float(cost))] + [repr(float(v)) for v in coords])


def read_instance_csv(path: str) -> tuple[MetricInstance, tuple[str, ...]]:
    client_coords, groups, fac_coords, costs = [], [], [], []
    names: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 3
        if [h.strip().lower() for h in header[:3]] != ["kind", "group", "cost"] or dim < 1:
            raise DataError(f"{path}, line 1: the header must be kind,group,cost then coordinate columns")

        def number(col: int) -> float:
            """The current row's cell ``col`` as a float."""
            try:
                return float(row[col])
            except ValueError:
                raise DataError(f"{where}: {header[col]} cell {row[col]!r} is not a number") from None

        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                raise DataError(f"{where}: {len(row)} cells, the header has {len(header)}")
            kind = row[0]
            if kind not in ("client", "facility"):
                raise DataError(f"{where}: unknown row kind {kind!r}")
            coords = [number(col) for col in range(3, 3 + dim)]
            if kind == "client":
                label = row[1]
                if label not in names:
                    names[label] = len(names)
                groups.append(names[label])
                client_coords.append(coords)
            else:
                costs.append(number(2))
                fac_coords.append(coords)
    inst = MetricInstance(np.array(client_coords), groups, np.array(fac_coords), costs)
    return inst, tuple(names)


def prepare_instance(cfg: dict) -> tuple[MetricInstance, tuple[str, ...]]:
    """Build the (possibly re-costed, possibly pruned) instance a run operates on."""
    dataset = cfg["dataset"]
    if dataset == "synthetic":
        inst, names = generate_synthetic(_from_config(SyntheticConfig, cfg, n_facilities=cfg["m"]))
    elif _is_instance_file(dataset, cfg["group_col"]):
        inst, names = read_instance_csv(dataset)
    else:
        if not cfg["group_col"]:
            raise ConfigError("--group-col is required for CSV datasets")
        table = load_csv(dataset, cfg["group_col"], cfg["feature_cols"], cfg["delimiter"])
        table = normalize(table)
        if cfg["n"] is not None:
            table = sample_clients(table, cfg["n"], cfg["seed"])
        centers = select_facilities_kmeans(table.features, cfg["m"], cfg["seed"])
        inst = build_instance(table, centers)
        names = table.group_names
    if cfg["facility_cost"] == "uniform_dmax":
        inst = uniform_dmax(inst)
    if cfg["prune"]:
        inst = prune_pairs(inst)
    return inst, names


# ---------------------------------------------------------------------------
# algorithm cells

def run_algorithm(
    algo: str, inst: MetricInstance, budgets: OutlierBudgets, params: RunParams
) -> IntegralSolution:
    if algo == "lpr-f":
        cfg = RoundingConfig(params.epsilon, params.open_threshold)
        return lpr_pipeline(inst, budgets, cfg, PER_GROUP, chain=params.lp_chain)[0]
    if algo == "lpr-nf":
        cfg = RoundingConfig(params.epsilon, params.open_threshold)
        return lpr_pipeline(inst, budgets, cfg, AGGREGATE, chain=params.lp_chain)[0]
    if algo == "gdf-f":
        return gdf_f(inst, budgets)
    if algo == "gdf-nf":
        return gdf_nf(inst, budgets.total)
    if algo == "rls-f":
        return r_ls_f(inst, budgets, params.k, params.gamma, params.eps_guess, params.improve_frac)
    if algo == "rls-nf":
        return r_ls_nf(inst, budgets.total, params.k, params.gamma, params.eps_guess, params.improve_frac)
    if algo == "ls-nf":
        return ls_nf(inst, budgets.total, params.k, params.improve_frac)
    raise ConfigError(f"unknown algorithm {algo!r}")


def _cost(sol: IntegralSolution, problem: str) -> float:
    """The objective value reported for ``problem``: facility plus connection
    cost for facility location, connection cost alone for k-median."""
    return sol.total_cost if problem == "fl" else sol.connection_cost


def _cell_worker(algo: str, pct: float, inst: MetricInstance, budgets: OutlierBudgets,
                 params: RunParams, problem: str, seed: int) -> tuple[SweepRecord, IntegralSolution]:
    """One cell (one algorithm at one percentage) of a sweep or of ``solve``:
    its record, re-checked against its solution, and the solution."""
    start = time.perf_counter()
    sol = run_algorithm(algo, inst, budgets, params)
    ms = (time.perf_counter() - start) * 1000.0
    cost = _cost(sol, problem)
    _verify_cell(algo, pct, inst, sol, cost, problem)
    record = SweepRecord(
        algo=algo,
        pct=pct,
        cost=cost,
        lp_obj=None,
        unfair=unfairness(budgets, sol),
        ell=budgets.per_group,
        ell_prime=sol.outlier_counts(),
        ms=ms,
        seed=seed,
    )
    return record, sol


def _verify_cell(algo: str, pct: float, inst: MetricInstance, sol: IntegralSolution,
                 cost: float, problem: str) -> None:
    """Recompute a cell's cost from its open set and dropped clients
    (``solution_cost``, to 1e-9 relative) and check its per-group outlier
    counts against the dropped clients of each group of ``inst``."""
    where = f"{algo} at pct {pct:g}"
    try:
        recomputed = solution_cost(inst, sol, FACILITY_LOCATION if problem == "fl" else K_MEDIAN)
    except ValueError as exc:
        raise CellCheckError(f"{where}: {exc}") from None
    if not math.isclose(cost, recomputed, rel_tol=1e-9):
        raise CellCheckError(f"{where}: reported cost {cost!r} != recomputed {recomputed!r}")
    left_out = tuple(int(np.count_nonzero(sol.dropped[members])) for members in inst.group_members)
    if sol.outlier_counts() != left_out:
        raise CellCheckError(
            f"{where}: outlier counts {sol.outlier_counts()} != dropped clients per group {left_out}"
        )


def run_sweep(inst: MetricInstance, cfg: dict) -> list[SweepRecord]:
    """Every algorithm's cells at every percentage, percentage-major in the
    order of ``cfg["algos"]``, each algorithm and percentage named once.
    The LP algorithms share one LpChain, in the order the module docstring
    gives, and the chain is released before the other algorithms run.  For
    facility location, the fair pass also solves each percentage's fair LP
    for ``lp_obj``; the chain's memo answers it when lpr-f already solved
    that LP."""
    problem, seed = cfg["problem"], cfg["seed"]
    algos = cfg["algos"]
    cells = [(pct, budgets_from_pct(inst, pct)) for pct in cfg["pcts"]]
    params = run_params(cfg)
    results: dict = {}
    lp_obj: dict = {}

    def run_cells(algo: str, params: RunParams) -> None:
        for pct, budgets in cells:
            results[algo, pct] = _cell_worker(algo, pct, inst, budgets, params, problem, seed)[0]

    with LpChain() as chain:
        lp_params = replace(params, lp_chain=chain)
        for pct, budgets in cells:
            if "lpr-f" in algos:
                results["lpr-f", pct] = _cell_worker("lpr-f", pct, inst, budgets, lp_params, problem, seed)[0]
            if problem == "fl" and algos:
                lp_obj[pct] = solve_lp(build_flfo_lp(inst, budgets, PER_GROUP), chain=chain).objective_value
        if "lpr-nf" in algos:
            run_cells("lpr-nf", lp_params)
    for algo in algos:
        if algo not in ("lpr-f", "lpr-nf"):
            run_cells(algo, params)
    return [replace(results[algo, pct], lp_obj=lp_obj.get(pct)) for pct, _ in cells for algo in cfg["algos"]]


def write_records(records: list[SweepRecord], cfg: dict, out_path: Optional[str]) -> None:
    fh = open(out_path, "w", newline="", encoding="utf-8") if out_path else sys.stdout
    try:
        for key in sorted(cfg):
            value = cfg[key]
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            lp_txt = "" if rec.lp_obj is None else f"{rec.lp_obj:.9g}"
            base = [rec.algo, f"{rec.pct:g}", f"{rec.cost:.9g}", lp_txt, f"{rec.unfair:.9g}"]
            for g, (cap, used) in enumerate(zip(rec.ell, rec.ell_prime)):
                writer.writerow(base + [g, cap, used, f"{rec.ms:.3f}", rec.seed])
            writer.writerow(
                base + ["all", sum(rec.ell), sum(rec.ell_prime), f"{rec.ms:.3f}", rec.seed]
            )
    finally:
        if out_path:
            fh.close()


# ---------------------------------------------------------------------------
# verbs

def _budgets(inst: MetricInstance, cfg: dict) -> tuple[OutlierBudgets, float]:
    """The one budget vector of ``solve`` and ``oracle``, with its percentage:
    the explicit ``ell`` caps (percentage 0), else the one percentage's."""
    if cfg["ell"] is not None:
        budgets = OutlierBudgets(tuple(cfg["ell"]))
        budgets.validate_for(inst)
        return budgets, 0.0
    if not cfg["pcts"]:
        raise ConfigError("need --pct or --ell")
    if len(cfg["pcts"]) > 1:
        raise ConfigError(
            f"'pcts' has {len(cfg['pcts'])} values ({', '.join(f'{p:g}' for p in cfg['pcts'])}); "
            "solve and oracle take one (sweep runs several)"
        )
    return budgets_from_pct(inst, cfg["pcts"][0]), cfg["pcts"][0]


def _check_problem(algos: Sequence[str], problem: str) -> None:
    """Facility-location algorithms open facilities without the cap k, so
    they do not run under k-median.  k-median algorithms may run in a
    facility-location sweep: any open set is feasible there."""
    for algo in algos:
        if problem == "kmedian" and algo in FL_ALGOS:
            raise ConfigError(f"{algo} is a facility-location algorithm; it does not run with problem kmedian")


def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    _check_problem([args.algo], cfg["problem"])
    if args.dump_mps and cfg["problem"] != "fl":
        raise ConfigError("--dump-mps writes the facility-location LP; it needs --problem fl")
    inst, names = prepare_instance(cfg)
    budgets, pct = _budgets(inst, cfg)
    if args.dump_mps:
        mode = AGGREGATE if args.algo == "lpr-nf" else PER_GROUP
        write_mps(build_flfo_lp(inst, budgets, mode), args.dump_mps)
    record, sol = _cell_worker(args.algo, pct, inst, budgets, run_params(cfg), cfg["problem"], cfg["seed"])
    print(f"algorithm: {args.algo}")
    print(f"clients: {inst.n_clients}  facilities: {inst.n_facilities}  groups: {inst.n_groups}")
    print(f"budgets: {budgets.per_group}")
    print(f"open facilities ({len(sol.open)}): {sorted(sol.open)}")
    print(f"facility cost: {sol.facility_cost:.6g}")
    print(f"connection cost: {sol.connection_cost:.6g}")
    print(f"objective ({cfg['problem']}): {record.cost:.6g}")
    print(f"unfairness: {record.unfair:.6g}")
    for g, name in enumerate(names):
        print(f"group {g} ({name}): {record.ell_prime[g]}/{budgets.per_group[g]} outliers")
    print(f"wall time: {record.ms:.1f} ms")
    if cfg["out"]:
        # the embedded configuration names what this row ran, not the file's lists
        ran = dict(cfg, algos=[args.algo], pcts=[] if cfg["ell"] is not None else [pct])
        write_records([record], ran, cfg["out"])
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if cfg["ell"] is not None:
        raise ConfigError("sweep takes --pct, one budget vector per percentage; 'ell' is for solve and oracle")
    _check_problem(cfg["algos"], cfg["problem"])
    if not cfg["pcts"]:
        raise ConfigError("need at least one --pct")
    for key in ("algos", "pcts"):
        for i, value in enumerate(cfg[key]):
            if value in cfg[key][:i]:
                shown = f"{value:g}" if key == "pcts" else value
                raise ConfigError(f"{key!r} names {shown} more than once; a sweep runs each once")
    inst, _ = prepare_instance(cfg)
    records = run_sweep(inst, cfg)
    write_records(records, cfg, cfg["out"])
    return 0


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    if not cfg["out"]:
        raise ConfigError("generate needs --out")
    inst, names = prepare_instance(dict(cfg, prune=False))
    write_instance_csv(inst, names, cfg["out"])
    print(f"wrote {inst.n_clients} clients and {inst.n_facilities} facilities to {cfg['out']}")
    return 0


def cmd_oracle(args) -> int:
    cfg = resolve_config(args)
    inst, names = prepare_instance(cfg)
    budgets, _ = _budgets(inst, cfg)
    problem = cfg["problem"]
    sol = exact_flfo(inst, budgets) if problem == "fl" else exact_kmfo(inst, budgets, cfg["k"])
    print(f"exact optimum ({problem}): {_cost(sol, problem):.9g}")
    print(f"open facilities: {sorted(sol.open)}")
    for g, (name, members) in enumerate(zip(names, inst.group_members)):
        print(f"group {g} ({name}): outliers {members[sol.dropped[members]].tolist()}")
    return 0


def cmd_gap_demo(args) -> int:
    inst, budgets = build_gap_instance(args.f, args.M)
    frac = solve_lp(build_flfo_lp(inst, budgets))
    exact = exact_flfo(inst, budgets)
    ratio = exact.total_cost / frac.objective_value if frac.objective_value else math.inf
    print(f"single facility cost {args.f:g}, {args.M} co-located clients, "
          f"budget {budgets.per_group[0]}")
    print(f"lp objective: {frac.objective_value:.9g}")
    print(f"exact integral cost: {exact.total_cost:.9g}")
    print(f"integrality ratio: {ratio:.9g}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _flag(p: argparse.ArgumentParser, flag: str, key: Optional[str] = None, **kw) -> None:
    """``flag`` sets config key ``key`` (by default the flag's name); its value
    parses as the same key does in a config file."""
    key = key or flag[2:].replace("-", "_")
    spec = CONFIG_KEYS[key]
    if spec.allowed:
        kw["metavar"] = "{" + ",".join(spec.allowed) + "}"
    p.add_argument(flag, dest=key, type=spec.parse, **kw)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file; flags override it")
    _flag(p, "--dataset", help="'synthetic', a raw CSV path, or a generated instance file")
    _flag(p, "--group-col", help="group label column for raw CSVs")
    _flag(p, "--feature-cols", action="extend",
          help="comma-separated feature columns (default: all but the group column); repeatable")
    _flag(p, "--n", help="client sample size for raw CSVs")
    _flag(p, "--m", help="number of candidate facilities (default 100)")
    _flag(p, "--problem", help="objective (default fl)")
    _flag(p, "--epsilon", help="LP-outlier threshold parameter in (0, 1/2]")
    _flag(p, "--gamma", help="penalty scale for the k-median reduction")
    _flag(p, "--eps-guess", help="geometric ratio minus one for the cost-guess grid")
    _flag(p, "--k", help="facility cap for k-median algorithms")
    _flag(p, "--seed", help="seed for sampling/generation (default 0)")
    _flag(p, "--out", help="output file")
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)  # still parses; nothing reads it
    _flag(p, "--facility-cost", help="uniform_dmax: each facility costs the max distance (default: own costs)")
    _flag(p, "--ell", action="extend", help="explicit per-group outlier budgets, comma separated; repeatable")
    p.add_argument("--no-prune", dest="prune", action="store_const", const=False, default=None,
                   help="skip median distance-pair pruning")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairfl",
        description="Facility location / k-median with group-fair outliers.",
        epilog="Sweep CSV columns: algo,pct,cost,lp_obj,unfairness,group,ell,ell_prime,ms,seed "
               "(one row per group plus a summary row with group=all).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve", help="run one algorithm on one instance")
    _add_common(p)
    p.add_argument("--algo", required=True, choices=CONFIG_KEYS["algos"].allowed)
    _flag(p, "--pct", "pcts", action="extend", help="outlier budget as percent of each group")
    p.add_argument("--dump-mps", help="also write the facility-location LP in MPS format (--problem fl)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run algorithms across outlier percentages")
    _add_common(p)
    _flag(p, "--algo", "algos", action="extend", help="repeatable")
    _flag(p, "--pct", "pcts", action="extend", help="repeatable")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="materialize an instance file")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle", help="exact brute force on a tiny instance")
    _add_common(p)
    _flag(p, "--pct", "pcts", action="extend")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gap-demo", help="LP vs integral optimum on the gap family")
    p.add_argument("--f", type=float, default=100.0, help="facility opening cost (default 100)")
    p.add_argument("--M", type=int, default=100, help="number of co-located clients (default 100)")
    p.set_defaults(func=cmd_gap_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LpError, RoundingError, GreedyError, LocalSearchError, OracleError, CellCheckError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
