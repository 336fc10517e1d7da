"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the measured ratios they document.
"""

import math
import statistics
import time

import numpy as np
import pytest

from fairfl import (
    MetricInstance,
    OutlierBudgets,
    PenaltyInstance,
    build_flfo_lp,
    build_gap_instance,
    exact_flfo,
    exact_kmp,
    gdf_f,
    gdf_nf,
    generate_synthetic,
    identify_outliers,
    local_search_penalties,
    lpr_f,
    rescale,
    solve_lp,
    unfairness,
    RoundingConfig,
)
from fairfl.cli import budgets_from_pct, build_parser, main, resolve_config, run_sweep
from fairfl.instance import prune_pairs
from fairfl.kmedian import _grid_from_totals
from conftest import random_budgets, random_instance

PCTS = [float(p) for p in range(1, 11)]


def sweep_config(**overrides):
    cfg = resolve_config(build_parser().parse_args(["sweep"]))
    cfg.update(
        {
            "dataset": "synthetic",
            "pcts": PCTS,
            "epsilon": 0.1,
            "seed": 0,
            "m": 100,
            "jobs": 1,
        }
    )
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def synthetic_fl_sweep():
    """One FL sweep over the default synthetic dataset, shared by the
    GDF-quality, separation, and LPR-near-optimality criteria."""
    cfg = sweep_config(algos=["lpr-f", "lpr-nf", "gdf-f", "gdf-nf"], problem="fl")
    inst, _ = generate_synthetic_default()
    start = time.perf_counter()
    records = run_sweep(inst, cfg)
    elapsed = time.perf_counter() - start
    by_key = {(r.algo, r.pct): r for r in records}
    return by_key, elapsed


def generate_synthetic_default():
    from fairfl import SyntheticConfig

    inst, names = generate_synthetic(SyntheticConfig(seed=0))
    return prune_pairs(inst), names


@pytest.fixture(scope="module")
def synthetic_km_sweep():
    cfg = sweep_config(algos=["rls-f", "ls-nf"], problem="kmedian", k=5)
    inst, _ = generate_synthetic_default()
    start = time.perf_counter()
    records = run_sweep(inst, cfg)
    elapsed = time.perf_counter() - start
    return {(r.algo, r.pct): r for r in records}, elapsed


def test_criterion_01_integrality_gap(capsys):
    start = time.perf_counter()
    assert main(["gap-demo", "--f", "100", "--M", "100"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    values = {ln.split(":")[0]: float(ln.split(":")[1]) for ln in out.splitlines() if ":" in ln}
    assert values["lp objective"] == pytest.approx(1.0, abs=1e-6)
    assert values["exact integral cost"] == pytest.approx(100.0, abs=1e-9)
    assert values["integrality ratio"] == pytest.approx(100.0, rel=1e-6)
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: gap demo lp=1.0 exact=100.0 ratio=100 in {elapsed:.2f}s")


def test_criterion_02_relaxation_bound(random_suite):
    start = time.perf_counter()
    for inst, budgets in random_suite:
        lp = solve_lp(build_flfo_lp(inst, budgets)).objective_value
        exact = exact_flfo(inst, budgets).total_cost
        assert lp <= exact + 1e-7, (lp, exact)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 PASS: LP <= exact on 200 instances in {elapsed:.1f}s")


def test_criterion_03_violation_bound(random_suite):
    for inst, budgets in random_suite:
        for eps in (0.1, 0.25, 0.5):
            sol = lpr_f(inst, budgets, RoundingConfig(epsilon=eps))
            for used, cap in zip(sol.outlier_counts(), budgets.per_group):
                assert used <= math.ceil((1 + 2 * eps) * cap), (used, cap, eps)
    print("ACCEPTANCE 3 PASS: per-group counts within ceil((1+2eps)*cap) on 200x3 runs")


def test_criterion_04_rescaling_chain(random_suite):
    for inst, budgets in random_suite:
        frac = solve_lp(build_flfo_lp(inst, budgets))
        for eps in (0.1, 0.25, 0.5):
            part = identify_outliers(inst, frac, budgets, eps)
            out = rescale(inst, frac, part, eps)
            assert out.objective_value <= frac.objective_value / eps * (1 + 1e-6) + 1e-12
            sums = np.bincount(out.pair_cli, weights=out.x_values, minlength=inst.n_clients)
            retained = np.array(sorted(part.retained), dtype=np.int64)
            if retained.size:
                assert np.abs(sums[retained] - 1.0).max() <= 1e-7
            assert (out.x_values <= out.y[out.pair_fac] + 1e-7).all()
    print("ACCEPTANCE 4 PASS: rescaled cost <= lp/eps and feasibility on every solve")


def test_criterion_05_gdf_fairness(random_suite):
    for inst, budgets in random_suite:
        sol = gdf_f(inst, budgets)
        assert unfairness(budgets, sol) == 1.0
    rng = np.random.default_rng(515151)
    for _ in range(100):
        inst = random_instance(rng, max_n=12, max_m=6, max_groups=1)
        budgets = random_budgets(rng, inst)
        fair = gdf_f(inst, budgets)
        nonfair = gdf_nf(inst, budgets.total)
        assert fair.open == nonfair.open
        assert fair.outliers == nonfair.outliers
        assert fair.assignment == nonfair.assignment
        assert fair.facility_cost == nonfair.facility_cost
        assert fair.connection_cost == nonfair.connection_cost
    print("ACCEPTANCE 5 PASS: unfairness == 1.0 on 200 runs; 100 bitwise single-group matches")


def test_criterion_06_gdf_quality(synthetic_fl_sweep):
    records, elapsed = synthetic_fl_sweep
    ratios = [records[("gdf-f", p)].cost / records[("gdf-f", p)].lp_obj for p in PCTS]
    med = statistics.median(ratios)
    assert med <= 1.6, ratios
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 6 PASS: gdf-f/LP median {med:.3f} "
        f"(range {min(ratios):.3f}..{max(ratios):.3f}), sweep {elapsed:.0f}s"
    )


def test_criterion_07_fl_separation(synthetic_fl_sweep):
    records, _ = synthetic_fl_sweep
    eps_bound = 1.0 + 2 * 0.1
    hit = None
    for p in PCTS:
        nonfair = max(records[("lpr-nf", p)].unfair, records[("gdf-nf", p)].unfair)
        fair = max(records[("lpr-f", p)].unfair, records[("gdf-f", p)].unfair)
        if nonfair >= 5.0 and fair <= eps_bound:
            hit = (p, nonfair, fair)
            break
    assert hit is not None
    print(
        f"ACCEPTANCE 7 PASS: at pct={hit[0]:g} non-fair unfairness {hit[1]:.2f} >= 5 "
        f"while fair {hit[2]:.2f} <= {eps_bound}"
    )


def test_criterion_08_lpr_near_optimal(synthetic_fl_sweep):
    records, _ = synthetic_fl_sweep
    ratios = {p: records[("lpr-f", p)].cost / records[("lpr-f", p)].lp_obj for p in PCTS}
    assert all(r <= 1.25 for r in ratios.values()), ratios
    pretty = " ".join(f"{p:g}%:{r:.3f}" for p, r in ratios.items())
    print(f"ACCEPTANCE 8 PASS: lpr-f/LP per pct {pretty}")


def test_criterion_09_local_search_sanity():
    rng = np.random.default_rng(99)
    for _ in range(100):
        inst = random_instance(rng, max_n=12, max_m=6, cost_scale=0.0)
        k = int(rng.integers(1, min(3, inst.n_facilities) + 1))
        pinst = PenaltyInstance(inst, k, np.full(inst.n_clients, np.inf))
        sol = local_search_penalties(pinst)  # termination bound asserted inside
        best = exact_kmp(pinst)
        assert best.total_cost - 1e-9 <= sol.total_cost <= 5 * best.total_cost + 1e-9
    print("ACCEPTANCE 9 PASS: exact <= LS <= 5x exact on 100 instances, swap bound held")


def test_criterion_10_kmedian_separation(synthetic_km_sweep):
    records, elapsed = synthetic_km_sweep
    hit = None
    for p in PCTS:
        fair = records[("rls-f", p)].unfair
        plain = records[("ls-nf", p)].unfair
        if fair <= 1.5 and plain >= 5.0:
            hit = (p, fair, plain)
            break
    assert hit is not None, {p: (records[("rls-f", p)].unfair, records[("ls-nf", p)].unfair) for p in PCTS}
    assert elapsed < 600.0
    print(
        f"ACCEPTANCE 10 PASS: at pct={hit[0]:g} rls-f unfairness {hit[1]:.2f} <= 1.5, "
        f"ls-nf {hit[2]:.2f} >= 5; sweep {elapsed:.0f}s"
    )


def test_criterion_11_guess_grid_property():
    rng = np.random.default_rng(1111)
    for _ in range(200):
        inst = random_instance(rng, max_n=12, max_m=6)
        budgets = random_budgets(rng, inst)
        eps = float(rng.uniform(0.05, 1.5))
        grid = _grid_from_totals(inst, budgets.total, eps)
        # every served client pays between the smallest positive and the
        # largest distance
        served = inst.n_clients - budgets.total
        dist = inst.distances()
        positive = dist[dist > 0]
        lo = served * float(positive.min()) if served and positive.size else 0.0
        hi = served * float(dist.max()) if served and positive.size else 0.0
        assert grid[0] == lo
        assert grid[-1] >= hi * (1 - 1e-12)
        if hi > lo > 0:
            bound = math.ceil(math.log(hi / lo) / math.log(1 + eps)) + 1
            assert len(grid) <= bound + 1
    print("ACCEPTANCE 11 PASS: grid brackets its range within the logarithmic size bound")


@pytest.mark.slow
def test_criterion_12_large_csv_sweep(tmp_path):
    rng = np.random.default_rng(7)
    n_rows = 6000
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
    path = tmp_path / "big.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c0,c1,c2,c3,c4,c5,grp\n")
        for row, g in zip(features, groups):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{g}\n")
    out = tmp_path / "big_sweep.csv"
    args = ["sweep", "--dataset", str(path), "--group-col", "grp", "--n", "4500",
            "--m", "100", "--epsilon", "0.1", "--seed", "0", "--out", str(out)]
    for algo in ("lpr-f", "lpr-nf", "gdf-f", "gdf-nf"):
        args += ["--algo", algo]
    for p in PCTS:
        args += ["--pct", f"{p:g}"]
    start = time.perf_counter()
    assert main(args) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    worst_fair = 0.0
    for line in open(out, encoding="utf-8"):
        if line.startswith(("#", "algo")):
            continue
        parts = line.split(",")
        if parts[0] in ("lpr-f", "gdf-f"):
            worst_fair = max(worst_fair, float(parts[4]))
    assert worst_fair <= 1.2
    print(
        f"ACCEPTANCE 12 PASS: 4500x100 FL sweep in {elapsed:.0f}s, "
        f"worst fair-variant unfairness {worst_fair:.3f} <= 1.2"
    )
