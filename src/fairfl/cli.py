"""Command-line front end and benchmark harness.

Verbs: ``solve`` (one algorithm, one instance), ``sweep`` (cost/unfairness
rows across outlier percentages), ``generate`` (materialize an instance),
``oracle`` (exact solver on tiny instances), ``gap-demo`` (LP vs integral
optimum on the worst-case family).

Sweep output is CSV with the resolved configuration embedded as leading
``#`` comment lines and the fixed header
``algo,pct,cost,lp_obj,unfairness,group,ell,ell_prime,ms,seed``: one row
per group, then a summary row with group ``all``.  ``lp_obj`` is the fair
LP optimum at that percentage (facility-location sweeps only), taken over
the allowed facility-client pairs only: it lower-bounds the solutions that
keep within the budgets and assign through allowed pairs, while LPR and GDF
assign over the full metric, so on a pruned instance their cost may fall
below it.  A sweep runs one chain per algorithm: that algorithm's
percentages in order, in one process, with the LP re-solved warm from one
percentage to the next (see ``fairfl.lp.LpChain``), so output bytes do not
depend on ``--jobs``.  Exit codes: 0 success, 2 configuration error, 3
solver error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

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
    IntegralSolution,
    MetricInstance,
    OutlierBudgets,
    prune_pairs,
    unfairness,
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


@dataclass
class RunParams:
    """Everything an algorithm cell needs besides the instance."""

    epsilon: float = 0.1
    open_threshold: float = 0.5
    gamma: float = 0.5
    eps_guess: float = 0.5
    improve_frac: float = 0.01
    k: int = 5
    lp_chain: Optional[LpChain] = None  # shared by the LP solves of one sweep chain


def run_params(cfg: dict) -> RunParams:
    """The algorithm parameters of a resolved configuration."""
    return RunParams(
        epsilon=cfg["epsilon"],
        open_threshold=cfg["open_threshold"],
        gamma=cfg["gamma"],
        eps_guess=cfg["eps_guess"],
        improve_frac=cfg["improve_frac"],
        k=cfg["k"],
    )


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

_CONFIG_KEYS = {
    "dataset": str,
    "group_col": str,
    "feature_cols": "strlist",
    "n": int,
    "m": int,
    "problem": str,
    "algos": "strlist",
    "pcts": "floatlist",
    "epsilon": float,
    "open_threshold": float,
    "gamma": float,
    "eps_guess": float,
    "improve_frac": float,
    "k": int,
    "seed": int,
    "out": str,
    "jobs": int,
    "facility_cost": str,
    "ell": "intlist",
    "prune": "bool",
    "delimiter": str,
    "n_in": int,
    "n_out": int,
    "in_mean": float,
    "in_sd": float,
    "out_mean": float,
    "out_sd": float,
    "cost_near": float,
    "cost_far": float,
    "near_radius": float,
    "dim": int,
    "f": float,
    "M": int,
    "dump_mps": str,
}

_DEFAULTS = {
    "dataset": "synthetic",
    "group_col": None,
    "feature_cols": None,
    "n": None,
    "m": 100,
    "problem": "fl",
    "algos": [],
    "pcts": [],
    "epsilon": 0.1,
    "open_threshold": 0.5,
    "gamma": 0.5,
    "eps_guess": 0.5,
    "improve_frac": 0.01,
    "k": 5,
    "seed": 0,
    "out": None,
    "jobs": 1,
    "facility_cost": None,
    "ell": None,
    "prune": True,
    "delimiter": ",",
    "n_in": 500,
    "n_out": 50,
    "in_mean": 0.0,
    "in_sd": 10.0,
    "out_mean": 10.0,
    "out_sd": 20.0,
    "cost_near": 80.0,
    "cost_far": 40.0,
    "near_radius": 10.0,
    "dim": 2,
    "f": 100.0,
    "M": 100,
    "dump_mps": None,
}


def _coerce(key: str, raw: str):
    kind = _CONFIG_KEYS[key]
    try:
        if kind is str:
            return raw
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == "strlist":
            return [s.strip() for s in raw.split(",") if s.strip()]
        if kind == "floatlist":
            return [float(s) for s in raw.split(",") if s.strip()]
        if kind == "intlist":
            return [int(s) for s in raw.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
    raise AssertionError(kind)


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; ``#`` starts a comment, blank lines ok."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                key, raw = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
                values[key] = _coerce(key, raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None and value != []:
            cfg[key] = value
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


def _is_instance_file(path: str) -> bool:
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
    except OSError:
        return False
    return first.strip().lower().startswith("kind,")


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
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = len(header) - 3
        for row in reader:
            kind = row[0]
            coords = [float(v) for v in row[3 : 3 + dim]]
            if kind == "client":
                label = row[1]
                if label not in names:
                    names[label] = len(names)
                groups.append(names[label])
                client_coords.append(coords)
            elif kind == "facility":
                costs.append(float(row[2]))
                fac_coords.append(coords)
            else:
                raise DataError(f"{path}: unknown row kind {kind!r}")
    inst = MetricInstance(np.array(client_coords), groups, np.array(fac_coords), costs)
    return inst, tuple(names)


def prepare_instance(cfg: dict) -> tuple[MetricInstance, tuple[str, ...]]:
    """Build the (possibly pruned) instance a run operates on."""
    dataset = cfg["dataset"]
    if dataset == "synthetic":
        syn = SyntheticConfig(
            n_in=cfg["n_in"],
            n_out=cfg["n_out"],
            in_mean=cfg["in_mean"],
            in_sd=cfg["in_sd"],
            out_mean=cfg["out_mean"],
            out_sd=cfg["out_sd"],
            cost_near=cfg["cost_near"],
            cost_far=cfg["cost_far"],
            near_radius=cfg["near_radius"],
            dim=cfg["dim"],
            n_facilities=cfg["m"],
            seed=cfg["seed"],
        )
        inst, names = generate_synthetic(syn)
        if cfg["facility_cost"] == "uniform_dmax":
            d_max = float(inst.distances().max())
            inst = replace(inst, open_costs=np.full(inst.n_facilities, d_max))
    elif _is_instance_file(dataset):
        inst, names = read_instance_csv(dataset)
    else:
        if not cfg["group_col"]:
            raise ConfigError("--group-col is required for CSV datasets")
        table = load_csv(dataset, cfg["group_col"], cfg["feature_cols"], cfg["delimiter"])
        table = normalize(table)
        if cfg["n"] is not None and cfg["n"] < table.n_rows:
            table = sample_clients(table, cfg["n"], cfg["seed"])
        centers = select_facilities_kmeans(table.features, cfg["m"], cfg["seed"])
        if cfg["facility_cost"] not in (None, "uniform_dmax"):
            raise ConfigError("CSV datasets support only facility_cost=uniform_dmax")
        inst = build_instance(table, centers)
        names = table.group_names
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


def _cell_worker(payload) -> SweepRecord:
    """One sweep cell: one algorithm at one percentage."""
    algo, pct, inst, budgets, params, problem, seed = payload
    start = time.perf_counter()
    sol = run_algorithm(algo, inst, budgets, params)
    ms = (time.perf_counter() - start) * 1000.0
    cost = sol.total_cost if problem == "fl" else sol.connection_cost
    return SweepRecord(
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


def _chain_worker(payload) -> tuple[list[SweepRecord], list[float]]:
    """One algorithm's cells at every percentage, in order, on one LpChain;
    module-level so process pools can pickle it.

    ``algo`` None runs no cells.  With ``want_lp`` the fair LP optimum at
    each percentage is returned too, read from the chain's memo when the
    algorithm already solved that LP (lpr-f) and solved on the chain
    otherwise.  The chain's HiGHS models are released when it ends.
    """
    algo, pcts, budget_list, inst, params, problem, seed, want_lp = payload
    records, lp_objs = [], []
    with LpChain() as chain:
        params = replace(params, lp_chain=chain)
        for pct, budgets in zip(pcts, budget_list):
            if algo is not None:
                records.append(_cell_worker((algo, pct, inst, budgets, params, problem, seed)))
            if want_lp:
                frac = chain.solved(budgets, PER_GROUP)
                if frac is None:
                    frac = solve_lp(build_flfo_lp(inst, budgets, PER_GROUP), chain=chain)
                lp_objs.append(frac.objective_value)
    return records, lp_objs


def run_sweep(inst: MetricInstance, cfg: dict) -> list[SweepRecord]:
    problem = cfg["problem"]
    if problem not in ("fl", "kmedian"):
        raise ConfigError(f"unknown problem {cfg['problem']!r}")
    algos = list(cfg["algos"])
    valid = FL_ALGOS + KM_ALGOS
    for algo in algos:
        if algo not in valid:
            raise ConfigError(f"unknown algorithm {algo!r}")
    params = run_params(cfg)
    pcts = list(cfg["pcts"])
    budget_list = [budgets_from_pct(inst, pct) for pct in pcts]
    # one chain per distinct algorithm; the lpr-f chain also reports lp_obj,
    # and without lpr-f a chain of its own solves the fair LP
    wants_lp = problem == "fl" and bool(algos)
    chains = list(dict.fromkeys(algos))
    if wants_lp and "lpr-f" not in chains:
        chains.append(None)
    payloads = [
        (algo, pcts, budget_list, inst, params, problem, cfg["seed"],
         wants_lp and algo in ("lpr-f", None))
        for algo in chains
    ]
    if cfg["jobs"] > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg["jobs"], len(payloads))) as pool:
            outputs = list(pool.map(_chain_worker, payloads))
    else:
        outputs = [_chain_worker(payload) for payload in payloads]

    results: dict = {}
    lp_obj: dict = {}
    for algo, (records, lp_objs) in zip(chains, outputs):
        results.update(((algo, rec.pct), rec) for rec in records)
        lp_obj.update(zip(pcts, lp_objs))
    records = []
    for pct in pcts:
        for algo in algos:
            record = results[(algo, pct)]
            record.lp_obj = lp_obj.get(pct)
            records.append(record)
    return records


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

def cmd_solve(args) -> int:
    cfg = resolve_config(args)
    inst, names = prepare_instance(cfg)
    if cfg["ell"] is not None:
        budgets = OutlierBudgets(tuple(cfg["ell"]))
        budgets.validate_for(inst)
        pct = 0.0
    else:
        if not cfg["pcts"]:
            raise ConfigError("need --pct or --ell")
        pct = cfg["pcts"][0]
        budgets = budgets_from_pct(inst, pct)
    params = run_params(cfg)
    if cfg["dump_mps"]:
        mode = AGGREGATE if args.algo == "lpr-nf" else PER_GROUP
        write_mps(build_flfo_lp(inst, budgets, mode), cfg["dump_mps"])
    start = time.perf_counter()
    sol = run_algorithm(args.algo, inst, budgets, params)
    ms = (time.perf_counter() - start) * 1000.0
    problem = cfg["problem"]
    cost = sol.total_cost if problem == "fl" else sol.connection_cost
    print(f"algorithm: {args.algo}")
    print(f"clients: {inst.n_clients}  facilities: {inst.n_facilities}  groups: {inst.n_groups}")
    print(f"budgets: {budgets.per_group}")
    print(f"open facilities ({len(sol.open)}): {sorted(sol.open)}")
    print(f"facility cost: {sol.facility_cost:.6g}")
    print(f"connection cost: {sol.connection_cost:.6g}")
    print(f"objective ({problem}): {cost:.6g}")
    print(f"unfairness: {unfairness(budgets, sol):.6g}")
    for g, name in enumerate(names):
        print(f"group {g} ({name}): {len(sol.outliers[g])}/{budgets.per_group[g]} outliers")
    print(f"wall time: {ms:.1f} ms")
    if cfg["out"]:
        record = SweepRecord(
            args.algo, pct, cost, None, unfairness(budgets, sol),
            budgets.per_group, sol.outlier_counts(), ms, cfg["seed"],
        )
        write_records([record], cfg, cfg["out"])
    return 0


def cmd_sweep(args) -> int:
    cfg = resolve_config(args)
    if not cfg["pcts"]:
        raise ConfigError("need at least one --pct")
    inst, _ = prepare_instance(cfg)
    records = run_sweep(inst, cfg)
    write_records(records, cfg, cfg["out"])
    return 0


def cmd_generate(args) -> int:
    cfg = resolve_config(args)
    if not cfg["out"]:
        raise ConfigError("generate needs --out")
    prune = cfg["prune"]
    cfg["prune"] = False
    inst, names = prepare_instance(cfg)
    cfg["prune"] = prune
    write_instance_csv(inst, names, cfg["out"])
    print(f"wrote {inst.n_clients} clients and {inst.n_facilities} facilities to {cfg['out']}")
    return 0


def cmd_oracle(args) -> int:
    cfg = resolve_config(args)
    inst, names = prepare_instance(cfg)
    if cfg["ell"] is not None:
        budgets = OutlierBudgets(tuple(cfg["ell"]))
        budgets.validate_for(inst)
    elif cfg["pcts"]:
        budgets = budgets_from_pct(inst, cfg["pcts"][0])
    else:
        raise ConfigError("need --pct or --ell")
    if cfg["problem"] == "fl":
        sol = exact_flfo(inst, budgets)
        cost = sol.total_cost
    else:
        sol = exact_kmfo(inst, budgets, cfg["k"])
        cost = sol.connection_cost
    print(f"exact optimum ({cfg['problem']}): {cost:.9g}")
    print(f"open facilities: {sorted(sol.open)}")
    for g, name in enumerate(names):
        print(f"group {g} ({name}): outliers {sorted(sol.outliers[g])}")
    return 0


def cmd_gap_demo(args) -> int:
    cfg = resolve_config(args)
    inst, budgets = build_gap_instance(cfg["f"], cfg["M"])
    frac = solve_lp(build_flfo_lp(inst, budgets))
    exact = exact_flfo(inst, budgets)
    ratio = exact.total_cost / frac.objective_value if frac.objective_value else math.inf
    print(f"single facility cost {cfg['f']:g}, {cfg['M']} co-located clients, "
          f"budget {budgets.per_group[0]}")
    print(f"lp objective: {frac.objective_value:.9g}")
    print(f"exact integral cost: {exact.total_cost:.9g}")
    print(f"integrality ratio: {ratio:.9g}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file; flags override it")
    p.add_argument("--dataset", help="'synthetic', a raw CSV path, or a generated instance file")
    p.add_argument("--group-col", dest="group_col", help="group label column for raw CSVs")
    p.add_argument("--feature-cols", dest="feature_cols", type=lambda s: s.split(","),
                   help="comma-separated feature columns (default: all but the group column)")
    p.add_argument("--n", type=int, help="client sample size for raw CSVs")
    p.add_argument("--m", type=int, help="number of candidate facilities (default 100)")
    p.add_argument("--problem", choices=["fl", "kmedian"], help="objective (default fl)")
    p.add_argument("--epsilon", type=float, help="LP-outlier threshold parameter in (0, 1/2]")
    p.add_argument("--gamma", type=float, help="penalty scale for the k-median reduction")
    p.add_argument("--eps-guess", dest="eps_guess", type=float,
                   help="geometric ratio minus one for the cost-guess grid")
    p.add_argument("--k", type=int, help="facility cap for k-median algorithms")
    p.add_argument("--seed", type=int, help="seed for sampling/generation (default 0)")
    p.add_argument("--out", help="output file")
    p.add_argument("--jobs", type=int, help="parallel sweep workers (default 1)")
    p.add_argument("--facility-cost", dest="facility_cost", choices=["uniform_dmax", "from_data"],
                   help="uniform_dmax: every facility costs the max pair distance")
    p.add_argument("--ell", type=lambda s: [int(v) for v in s.split(",")],
                   help="explicit per-group outlier budgets, comma separated")
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
    p.add_argument("--algo", required=True, choices=FL_ALGOS + KM_ALGOS)
    p.add_argument("--pct", dest="pcts", action="append", type=float,
                   help="outlier budget as percent of each group")
    p.add_argument("--dump-mps", dest="dump_mps", help="also write the LP model in MPS format")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run algorithms across outlier percentages")
    _add_common(p)
    p.add_argument("--algo", dest="algos", action="append",
                   choices=FL_ALGOS + KM_ALGOS, help="repeatable")
    p.add_argument("--pct", dest="pcts", action="append", type=float, help="repeatable")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="materialize an instance file")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("oracle", help="exact brute force on a tiny instance")
    _add_common(p)
    p.add_argument("--pct", dest="pcts", action="append", type=float)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gap-demo", help="LP vs integral optimum on the gap family")
    _add_common(p)
    p.add_argument("--f", type=float, help="facility opening cost (default 100)")
    p.add_argument("--M", type=int, help="number of co-located clients (default 100)")
    p.set_defaults(func=cmd_gap_demo)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LpError, RoundingError, GreedyError, LocalSearchError, OracleError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
