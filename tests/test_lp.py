import numpy as np
import pytest
from scipy import sparse

import fairfl.lp
from fairfl import (
    AGGREGATE,
    PER_GROUP,
    InfeasibleError,
    IterationLimitError,
    LpChain,
    LpError,
    LpModel,
    MetricInstance,
    OutlierBudgets,
    SyntheticConfig,
    build_flfo_lp,
    build_gap_instance,
    exact_flfo,
    generate_synthetic,
    prune_pairs,
    solve_lp,
    write_mps,
)
from fairfl.cli import budgets_from_pct
from fairfl.lp import _verify_residuals
from conftest import random_budgets, random_instance


def tiny(client_pts, groups, fac_pts, costs):
    return MetricInstance(np.array(client_pts, float), groups, np.array(fac_pts, float), costs)


class TestBuild:
    def test_counts_one_of_each(self):
        inst = tiny([[0.0]], [0], [[0.0]], [1.0])
        model = build_flfo_lp(inst, OutlierBudgets((0,)))
        assert model.n_vars == 3
        assert model.n_rows == 3

    def test_counts_full_pairs_two_groups(self):
        inst = tiny([[0.0], [1.0], [2.0]], [0, 1, 0], [[0.0], [1.0]], [1.0, 1.0])
        model = build_flfo_lp(inst, OutlierBudgets((0, 0)))
        assert model.n_vars == 6 + 2 + 3 == 11
        assert model.n_rows == 3 + 6 + 2 == 11

    def test_counts_aggregate_merges_budget_rows(self):
        inst = tiny([[0.0], [1.0], [2.0]], [0, 1, 0], [[0.0], [1.0]], [1.0, 1.0])
        model = build_flfo_lp(inst, OutlierBudgets((0, 0)), AGGREGATE)
        assert model.n_rows == 10

    def test_rejects_wrong_budget_length(self):
        inst = tiny([[0.0], [1.0]], [0, 1], [[0.0]], [1.0])
        with pytest.raises(ValueError):
            build_flfo_lp(inst, OutlierBudgets((0,)))

    def test_rejects_unknown_mode(self):
        inst = tiny([[0.0]], [0], [[0.0]], [1.0])
        with pytest.raises(ValueError):
            build_flfo_lp(inst, OutlierBudgets((0,)), "both")

    def test_catalog_roundtrip(self):
        inst = tiny([[0.0], [1.0]], [0, 0], [[0.0], [3.0]], [1.0, 1.0])
        model = build_flfo_lp(inst, OutlierBudgets((1,)))
        roles = [model.var_role(v) for v in range(model.n_vars)]
        assert roles.count(("y", 0)) == 1 and roles.count(("z", 1)) == 1
        assert ("x", 1, 0) in roles
        rows = [model.row_role(r) for r in range(model.n_rows)]
        assert rows[0] == ("cover", 0)
        assert rows[-1] == ("budget", 0)
        with pytest.raises(IndexError):
            model.var_role(model.n_vars)


class TestSolve:
    def test_gap_objective_is_cost_over_clients(self):
        inst, budgets = build_gap_instance(100.0, 100)
        frac = solve_lp(build_flfo_lp(inst, budgets))
        assert frac.objective_value == pytest.approx(1.0, abs=1e-9)
        assert frac.y[0] == pytest.approx(0.01, abs=1e-9)

    def test_forced_full_service(self):
        inst = tiny([[7.0]], [0], [[0.0]], [0.0])
        frac = solve_lp(build_flfo_lp(inst, OutlierBudgets((0,))))
        assert frac.objective_value == pytest.approx(7.0, abs=1e-9)
        assert frac.y[0] == pytest.approx(1.0)
        assert frac.z[0] == pytest.approx(0.0, abs=1e-9)

    def test_free_outlier_preferred(self):
        inst = tiny([[10.0]], [0], [[0.0]], [3.0])
        frac = solve_lp(build_flfo_lp(inst, OutlierBudgets((1,))))
        assert frac.objective_value == pytest.approx(0.0, abs=1e-9)
        assert frac.z[0] == pytest.approx(1.0)

    def test_bitwise_deterministic(self, rng):
        inst = random_instance(rng, max_n=10, max_m=5)
        budgets = random_budgets(rng, inst)
        model = build_flfo_lp(inst, budgets)
        a = solve_lp(model)
        b = solve_lp(model)
        assert a.objective_value == b.objective_value
        assert (a.x_values == b.x_values).all()
        assert (a.y == b.y).all() and (a.z == b.z).all()

    def test_lower_bounds_exact_optimum(self, rng):
        for _ in range(25):
            inst = random_instance(rng)
            budgets = random_budgets(rng, inst)
            frac = solve_lp(build_flfo_lp(inst, budgets))
            exact = exact_flfo(inst, budgets)
            assert frac.objective_value <= exact.total_cost + 1e-7

    def test_iteration_limit_raises(self, rng):
        inst = random_instance(rng, max_n=12, max_m=6, min_n=8)
        budgets = random_budgets(rng, inst)
        model = build_flfo_lp(inst, budgets)
        with pytest.raises(IterationLimitError):
            solve_lp(model, pivot_cap=1)

    def test_infeasible_raises(self):
        # hand-built contradictory model: single opening variable >= 2
        model = LpModel(
            c=np.zeros(1),
            a_matrix=sparse.csr_matrix(np.array([[1.0]])),
            senses=np.array(["G"]),
            rhs=np.array([2.0]),
            pair_fac=np.zeros(0, dtype=np.int64),
            pair_cli=np.zeros(0, dtype=np.int64),
            n_facilities=1,
            n_clients=0,
            n_budget_rows=1,
            fairness="per_group",
        )
        with pytest.raises(InfeasibleError):
            solve_lp(model)

    def test_residual_pass_rejects_bad_point(self):
        inst = tiny([[7.0]], [0], [[0.0]], [0.0])
        model = build_flfo_lp(inst, OutlierBudgets((0,)))
        with pytest.raises(LpError):
            _verify_residuals(model, np.zeros(model.n_vars))  # coverage violated
        with pytest.raises(LpError):
            _verify_residuals(model, np.full(model.n_vars, 2.0))  # bounds violated

    def test_feasible_within_tolerance_on_random(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            budgets = random_budgets(rng, inst)
            model = build_flfo_lp(inst, budgets)
            frac = solve_lp(model)
            values = np.concatenate([frac.x_values, frac.y, frac.z])
            _verify_residuals(model, values)  # must not raise
            lhs = model.a_matrix @ values
            cover = lhs[: inst.n_clients]
            assert (cover >= 1.0 - 1e-7).all()


def point(frac):
    return np.concatenate([frac.x_values, frac.y, frac.z])


@pytest.fixture(scope="module")
def synthetic_seed0():
    inst, _ = generate_synthetic(SyntheticConfig(seed=0))
    return prune_pairs(inst)


class TestLpChain:
    """Warm re-solves across budgets against a cold solve per budget."""

    @staticmethod
    def assert_warm_matches_cold(inst, budget_seq, fairness):
        with LpChain() as chain:
            for budgets in budget_seq:
                model = build_flfo_lp(inst, budgets, fairness)
                warm = chain.solve(model)
                cold = solve_lp(model)
                _verify_residuals(model, point(warm))
                assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-12)
            return dict(chain.stats)

    def test_warm_matches_cold_on_random_suite(self, random_suite):
        rng = np.random.default_rng(5150)
        warm_solves = 0
        for inst, budgets in random_suite:
            seq = [budgets, random_budgets(rng, inst), random_budgets(rng, inst)]
            for fairness in (PER_GROUP, AGGREGATE):
                stats = self.assert_warm_matches_cold(inst, seq, fairness)
                assert stats["cold"] == 1
                warm_solves += stats["warm"]
        assert warm_solves > 300  # most steps really re-solved warm

    def test_warm_matches_cold_on_synthetic_sweep(self, synthetic_seed0):
        seq = [budgets_from_pct(synthetic_seed0, p) for p in range(1, 11)]
        for fairness in (PER_GROUP, AGGREGATE):
            stats = self.assert_warm_matches_cold(synthetic_seed0, seq, fairness)
            assert (stats["cold"], stats["warm"]) == (1, 9)
            # a warm step costs a small fraction of the ~3,400 pivots of a cold one
            assert stats["simplex_iters"] < 3 * 4500

    def test_repeated_budgets_hit_the_memo(self, rng):
        inst = random_instance(rng, min_n=6)
        a, b = OutlierBudgets((0,) * inst.n_groups), random_budgets(rng, inst)
        with LpChain() as chain:
            first = chain.solve(build_flfo_lp(inst, a))
            chain.solve(build_flfo_lp(inst, b))
            assert chain.solve(build_flfo_lp(inst, a)) is first
            assert chain.solved(a) is first
            assert chain.solved(a, AGGREGATE) is None
            assert chain.stats["memo"] == 1
        assert chain.solved(a) is None  # closing released the models

    def test_other_instance_starts_cold(self, rng):
        with LpChain() as chain:
            for _ in range(3):
                inst = random_instance(rng)
                chain.solve(build_flfo_lp(inst, random_budgets(rng, inst)))
            assert chain.stats["cold"] == 3 and chain.stats["warm"] == 0

    def test_failed_solve_leaves_chain_usable(self, rng):
        inst = random_instance(rng, max_n=12, max_m=6, min_n=8)
        model = build_flfo_lp(inst, random_budgets(rng, inst))
        with LpChain() as chain:
            with pytest.raises(IterationLimitError):
                chain.solve(model, pivot_cap=1)
            frac = chain.solve(model)
        assert frac.objective_value == pytest.approx(solve_lp(model).objective_value, rel=1e-12)

    def test_linprog_fallback_agrees(self, monkeypatch, random_suite, synthetic_seed0):
        cases = [(inst, budgets, PER_GROUP) for inst, budgets in random_suite[:20]]
        # two budgets of one model: the fallback re-solves the second cold
        cases += [(synthetic_seed0, budgets_from_pct(synthetic_seed0, p), AGGREGATE) for p in (3, 4)]
        models = [build_flfo_lp(inst, budgets, fairness) for inst, budgets, fairness in cases]
        highs = [solve_lp(model) for model in models]
        calls = []
        linprog = fairfl.lp.linprog
        monkeypatch.setattr(fairfl.lp, "_Highs", None)
        monkeypatch.setattr(fairfl.lp, "linprog", lambda *a, **k: calls.append(1) or linprog(*a, **k))
        with LpChain() as chain:
            fallback = [solve_lp(model, chain=chain) for model in models]
            assert chain.stats["warm"] == 0
        assert len(calls) == len(models)
        for a, b in zip(highs, fallback):
            assert b.objective_value == pytest.approx(a.objective_value, rel=1e-9, abs=1e-12)
            np.testing.assert_allclose(point(b), point(a), atol=1e-7)


class TestGapInstance:
    def test_gap_100(self):
        inst, budgets = build_gap_instance(100.0, 100)
        lp = solve_lp(build_flfo_lp(inst, budgets)).objective_value
        exact = exact_flfo(inst, budgets).total_cost
        assert exact / lp == pytest.approx(100.0, rel=1e-6)

    def test_gap_small(self):
        inst, budgets = build_gap_instance(10.0, 2)
        lp = solve_lp(build_flfo_lp(inst, budgets)).objective_value
        assert lp == pytest.approx(5.0, abs=1e-9)
        assert exact_flfo(inst, budgets).total_cost == pytest.approx(10.0)

    def test_gap_wide(self):
        inst, budgets = build_gap_instance(1.0, 1000)
        lp = solve_lp(build_flfo_lp(inst, budgets)).objective_value
        exact = exact_flfo(inst, budgets).total_cost
        assert exact / lp == pytest.approx(1000.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_gap_instance(100.0, 1)
        with pytest.raises(ValueError):
            build_gap_instance(0.0, 10)


class TestMpsWriter:
    def parse_sections(self, path):
        sections = {}
        current = None
        for line in open(path, encoding="ascii"):
            if not line.startswith(" ") and line.strip():
                current = line.split()[0]
                sections[current] = []
            elif current:
                sections[current].append(line.rstrip("\n"))
        return sections

    def test_structure_and_values(self, tmp_path, rng):
        inst = tiny([[1.0], [4.0]], [0, 0], [[0.0], [2.0]], [3.0, 5.0])
        model = build_flfo_lp(inst, OutlierBudgets((1,)))
        path = tmp_path / "model.mps"
        write_mps(model, str(path))
        sections = self.parse_sections(str(path))
        assert set(sections) >= {"NAME", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"}
        rows = [ln.split() for ln in sections["ROWS"]]
        assert rows[0] == ["N", "COST"]
        assert len(rows) == 1 + model.n_rows
        senses = {name: tag for tag, name in rows[1:]}
        for r in range(model.n_rows):
            assert senses[f"R{r:07d}"] == str(model.senses[r])
        bounds = sections["BOUNDS"]
        assert len(bounds) == model.n_vars
        # objective coefficients survive the round trip
        coeffs = {}
        for ln in sections["COLUMNS"]:
            parts = ln.split()
            col = parts[0]
            for name, value in zip(parts[1::2], parts[2::2]):
                if name == "COST":
                    coeffs[col] = float(value)
        for v in range(model.n_vars):
            expected = model.c[v]
            got = coeffs.get(f"C{v:07d}", 0.0)
            assert got == pytest.approx(expected, rel=1e-7, abs=1e-12)
