import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize._highspy._core import (
    HighsLp,
    HighsOptions,
    MatrixFormat,
    _Highs,
    kHighsInf,
    simplex_constants,
)

from fairfl import (
    AGGREGATE,
    DualTrace,
    PER_GROUP,
    InfeasibleError,
    IterationLimitError,
    LpCertificateError,
    LpChain,
    LpError,
    LpModel,
    MetricInstance,
    OutlierBudgets,
    SyntheticConfig,
    UnboundedError,
    build_flfo_lp,
    build_gap_instance,
    exact_flfo,
    gdf_nf,
    generate_synthetic,
    prune_pairs,
    solve_lp,
    write_mps,
)
import fairfl.greedy
import fairfl.lp
from fairfl.cli import budgets_from_pct, build_parser, main, prepare_instance, resolve_config, run_sweep
from fairfl.lp import (
    CERTIFICATE_TOL,
    FEASIBILITY_TOL,
    POLISH_DUAL_TOL,
    RESIDUAL_TOL,
    HighsModelStatus,
    HighsStatus,
    _dual_bound,
    _held_matrix,
    _raise_for_status,
    _start_pairs,
    _verify_residuals,
)
from fairfl.greedy import connection_clocks
from conftest import random_budgets, random_instance, write_large_table


def tiny(client_pts, groups, fac_pts, costs):
    return MetricInstance(np.array(client_pts, float), groups, np.array(fac_pts, float), costs)


def nearest_start(START_PAIRS: int = 20):
    """The cold start as it stood before the clock rule, kept verbatim as a
    test-local start: each client's ``START_PAIRS`` nearest allowed pairs.
    Scenarios whose repro needs a start that small patch it in
    (``use_nearest_start``)."""

    def start_pairs(model: LpModel) -> np.ndarray:
        """Each client's ``START_PAIRS`` nearest allowed pairs by (distance,
        facility index), as ascending pair indices: every pair when no client
        has more.  The pairs are client-major with facilities ascending, so each
        client's cut-off distance is its ``START_PAIRS``-th smallest, found in
        its own row of a padded client-by-rank table, and the pairs tied at the
        cut-off are taken in order while the client has room."""
        n_pairs, n = model.n_pairs, model.n_clients
        cli, dist = model.pair_cli, model.c[:n_pairs]
        counts = np.bincount(cli, minlength=n)
        if counts.max() <= START_PAIRS:
            return np.arange(n_pairs)
        table = np.full((n, counts.max()), np.inf)
        table[np.arange(counts.max()) < counts[:, None]] = dist  # row-major fill is client-major
        table.partition(START_PAIRS - 1, axis=1)
        cut = table[:, START_PAIRS - 1].copy()
        del table  # before the pair-length arrays
        cut = np.repeat(cut, counts)
        chosen, tied = dist < cut, np.flatnonzero(dist == cut)
        room = START_PAIRS - np.bincount(cli[chosen], minlength=n)
        tied_cli = cli[tied]
        rank = np.arange(len(tied)) - np.searchsorted(tied_cli, tied_cli)  # among the client's ties
        chosen[tied[rank < room[tied_cli]]] = True
        return np.flatnonzero(chosen)

    return start_pairs


def use_nearest_start(monkeypatch, start_pairs: int = 20) -> None:
    """Start every cold copy from each client's ``start_pairs`` nearest pairs."""
    monkeypatch.setattr(fairfl.lp, "_start_pairs", nearest_start(start_pairs))


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

    def test_residual_pass_rejects_bad_point(self):
        inst = tiny([[7.0]], [0], [[0.0]], [0.0])
        model = build_flfo_lp(inst, OutlierBudgets((0,)))
        with pytest.raises(LpError):
            _verify_residuals(model, np.zeros(model.n_vars))  # coverage violated
        with pytest.raises(LpError):
            _verify_residuals(model, np.full(model.n_vars, 2.0))  # bounds violated

    def test_optimal_status_returns(self):
        assert _raise_for_status(HighsModelStatus.kOptimal, 10, "Optimal") is None

    @pytest.mark.parametrize(
        "status, error",
        [
            (HighsModelStatus.kIterationLimit, IterationLimitError),
            (HighsModelStatus.kInfeasible, InfeasibleError),
            (HighsModelStatus.kUnbounded, UnboundedError),
        ],
    )
    def test_status_maps_to_its_error(self, status, error):
        with pytest.raises(error):
            _raise_for_status(status, 10, "text")

    @pytest.mark.parametrize(
        "status", [HighsModelStatus.kUnboundedOrInfeasible, HighsModelStatus.kSolveError]
    )
    def test_other_status_raises_lp_error_with_its_text(self, status):
        with pytest.raises(LpError, match="Solve error text") as info:
            _raise_for_status(status, 10, "Solve error text")
        assert type(info.value) is LpError

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

    def test_warm_matches_cold_on_random_budget_chains(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=100, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            inst = random_instance(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
            budgets = st.tuples(*(st.integers(0, len(m)) for m in inst.group_members))
            chain = data.draw(st.lists(budgets.map(OutlierBudgets), min_size=2, max_size=6))
            for fairness in (PER_GROUP, AGGREGATE):
                self.assert_warm_matches_cold(inst, chain, fairness)

        check()

    def test_repeated_budgets_hit_the_memo(self, rng):
        inst = random_instance(rng, min_n=6)
        a, b = OutlierBudgets((0,) * inst.n_groups), random_budgets(rng, inst)
        with LpChain() as chain:
            first = chain.solve(build_flfo_lp(inst, a))
            chain.solve(build_flfo_lp(inst, b))
            assert chain.solve(build_flfo_lp(inst, a)) is first
            assert chain.stats["memo"] == 1

    def test_other_instance_starts_cold(self, rng):
        with LpChain() as chain:
            for _ in range(3):
                inst = random_instance(rng)
                chain.solve(build_flfo_lp(inst, random_budgets(rng, inst)))
            assert chain.stats["cold"] == 3 and chain.stats["warm"] == 0

    @staticmethod
    def assert_switch_matches_cold(inst, budget_seq, first, second):
        """Solves ``budget_seq`` in mode ``first`` and then in mode
        ``second`` on one chain, each of the latter against a cold solve;
        returns the chain's counters after the first and after the second
        pass."""
        with LpChain() as chain:
            for budgets in budget_seq:
                chain.solve(build_flfo_lp(inst, budgets, first))
            before = dict(chain.stats)
            for budgets in budget_seq:
                model = build_flfo_lp(inst, budgets, second)
                switched = chain.solve(model)
                cold = solve_lp(model)
                _verify_residuals(model, point(switched))
                objective = switched.objective_value
                assert objective == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-12)
                assert objective - switched.dual_bound <= CERTIFICATE_TOL * max(1.0, abs(objective))
            return before, dict(chain.stats)

    @pytest.mark.parametrize("first,second", [(PER_GROUP, AGGREGATE), (AGGREGATE, PER_GROUP)])
    def test_mode_switch_matches_cold_on_random_suite(self, random_suite, first, second):
        rng = np.random.default_rng(6174)
        for inst, budgets in random_suite:
            seq = [budgets, random_budgets(rng, inst), random_budgets(rng, inst)]
            _, stats = self.assert_switch_matches_cold(inst, seq, first, second)
            # with one group both modes are the same LP: no switch
            assert (stats["cold"], stats["switch"]) == (1, int(inst.n_groups > 1))
            assert stats["cold"] + stats["switch"] + stats["warm"] + stats["memo"] == 6

    @pytest.mark.parametrize("seed", [0, 1, 71])
    @pytest.mark.parametrize("first,second", [(PER_GROUP, AGGREGATE), (AGGREGATE, PER_GROUP)])
    def test_mode_switch_matches_cold_on_synthetic_sweeps(self, seed, first, second):
        inst = prune_pairs(generate_synthetic(SyntheticConfig(seed=seed))[0])
        seq = [budgets_from_pct(inst, p) for p in range(1, 11)]
        before, after = self.assert_switch_matches_cold(inst, seq, first, second)
        assert (after["cold"], after["warm"], after["switch"], after["memo"]) == (1, 18, 1, 0)
        if seed == 1:  # the first pass priced pairs in, and the switch keeps them
            assert before["priced_pairs"] > 0

    def test_mode_switch_starts_from_the_other_modes_basis(self, synthetic_seed0):
        """A switch costs a small share of the cold solve's pivots, so a
        silent fall-back to a cold start fails here."""
        aggregate = build_flfo_lp(synthetic_seed0, budgets_from_pct(synthetic_seed0, 1), AGGREGATE)
        with LpChain() as chain:
            for pct in range(1, 11):
                chain.solve(build_flfo_lp(synthetic_seed0, budgets_from_pct(synthetic_seed0, pct)))
            fair_iters = chain.stats["simplex_iters"]
            chain.solve(aggregate)
            switch_iters = chain.stats["simplex_iters"] - fair_iters
            assert chain.stats["switch"] == 1
        with LpChain() as cold:
            cold.solve(aggregate)
            assert cold.stats["cold"] == 1
        assert switch_iters < cold.stats["simplex_iters"] / 4

    def test_one_highs_copy_at_a_time(self, monkeypatch):
        """Through pricing rounds and a mode switch the chain keeps at most
        one HiGHS copy alive, and trims the heap at each release."""
        live, peak, trims = [0], [0], []

        class Counted(_Highs):
            def __init__(self):
                super().__init__()
                live[0] += 1
                peak[0] = max(peak[0], live[0])

            def __del__(self):
                live[0] -= 1

        monkeypatch.setattr(fairfl.lp, "_Highs", Counted)
        monkeypatch.setattr(fairfl.lp, "_MALLOC_TRIM", trims.append)
        inst = prune_pairs(generate_synthetic(SyntheticConfig(seed=1))[0])
        with LpChain() as chain:
            for fairness, pcts in ((PER_GROUP, (2, 5)), (AGGREGATE, (2, 8)), (PER_GROUP, (3, 8))):
                for pct in pcts:
                    chain.solve(build_flfo_lp(inst, budgets_from_pct(inst, pct), fairness))
            built = 1 + chain.stats["switch"] + chain.stats["pricing_rounds"]
            assert chain.stats["switch"] == 2 and chain.stats["pricing_rounds"] >= 1
        assert (peak[0], live[0]) == (1, 0)
        assert trims == [0] * built

    def test_unknown_status_on_a_carried_basis_is_polished(self, monkeypatch, synthetic_seed0):
        """From each client's 8 nearest pairs, the aggregate pct-3 solve of
        the chain fair 1-10, aggregate 1, 2, 3 ends a carried-basis run
        after a pricing round with status kUnknown.  The chain polishes that copy once by
        primal simplex, which ends optimal at the cold solve's value; the
        polish's iterations count in ``simplex_iters`` and against the pivot
        cap."""
        runs = []

        class Logged(_Highs):
            def run(self):
                status = super().run()
                runs.append((self.getModelStatus(), self.getInfo().simplex_iteration_count))
                return status

            def clearSolver(self):
                raise AssertionError("the solver state was cleared")

        use_nearest_start(monkeypatch, 8)
        monkeypatch.setattr(fairfl.lp, "_Highs", Logged)
        inst = synthetic_seed0
        steps = [build_flfo_lp(inst, budgets_from_pct(inst, pct), fairness)
                 for fairness, pcts in ((PER_GROUP, range(1, 11)), (AGGREGATE, (1, 2, 3))) for pct in pcts]

        def last_solve(pivot_cap=None):
            with LpChain() as chain:
                for model in steps[:-1]:
                    chain.solve(model)
                assert chain.stats["polished"] == 0
                runs.clear()
                before = chain.stats["simplex_iters"]
                frac = chain.solve(steps[-1], pivot_cap)
                return frac, chain.stats["simplex_iters"] - before, chain.stats["polished"]

        frac, spent, polished = last_solve()
        statuses = [status for status, _ in runs]
        assert statuses.count(HighsModelStatus.kUnknown) == 1 and polished == 1
        assert statuses[statuses.index(HighsModelStatus.kUnknown) + 1] == HighsModelStatus.kOptimal
        assert spent == sum(iters for _, iters in runs)
        assert frac.objective_value == 2917.7351224320323
        assert frac.objective_value == solve_lp(steps[-1]).objective_value
        assert last_solve(pivot_cap=spent)[0].objective_value == frac.objective_value
        with pytest.raises(IterationLimitError):
            last_solve(pivot_cap=spent - 1)

    def test_failed_solve_leaves_chain_usable(self, rng):
        inst = random_instance(rng, max_n=12, max_m=6, min_n=8)
        model = build_flfo_lp(inst, random_budgets(rng, inst))
        with LpChain() as chain:
            with pytest.raises(IterationLimitError):
                chain.solve(model, pivot_cap=1)
            frac = chain.solve(model)
        assert frac.objective_value == pytest.approx(solve_lp(model).objective_value, rel=1e-12)


def record_priced_pairs(monkeypatch) -> list:
    """Hook ``LpChain._build`` to record the count of pairs each pricing
    round appends to the held copy."""
    added, build = [], LpChain._build

    def recording(self, model, pairs):
        if self._highs is not None and len(pairs) > len(self._pairs):
            added.append(len(pairs) - len(self._pairs))
        build(self, model, pairs)

    monkeypatch.setattr(LpChain, "_build", recording)
    return added


# The full-model path as it stood before pricing, kept verbatim as the
# reference: every allowed pair handed to HiGHS through the per-attribute
# HighsLp setters, then one cold run.
def _upper_form(model: LpModel) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Rows negated where needed so that every row reads ``a x <= b``."""
    sign = np.where(model.senses == "G", -1.0, 1.0)
    return model.a_matrix.multiply(sign[:, None]).tocsr(), sign * model.rhs


def _highs_model(model: LpModel):
    """A HiGHS instance holding ``model``, solved by dual simplex without
    presolve.  Presolve finds nothing to remove in these models (every row
    and column survives it) and only costs time and a copy of the LP."""
    a_ub, b_ub = _upper_form(model)
    a_csc = a_ub.tocsc()
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.n_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = model.n_rows
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.start_ = a_csc.indptr
    lp.a_matrix_.index_ = a_csc.indices
    lp.a_matrix_.value_ = a_csc.data
    lp.col_cost_ = model.c
    lp.col_lower_ = np.zeros(model.n_vars)
    lp.col_upper_ = np.ones(model.n_vars)
    lp.row_lower_ = np.full(model.n_rows, -kHighsInf)
    lp.row_upper_ = b_ub
    options = HighsOptions()
    options.output_flag = False
    options.log_to_console = False
    options.presolve = "off"
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = 1e-9
    options.dual_feasibility_tolerance = 1e-9
    highs = _Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    return highs


def full_solve(model: LpModel) -> np.ndarray:
    """The reference point: the whole model solved cold in one run."""
    highs = _highs_model(model)
    cap = 50 * (model.n_rows + model.n_vars)
    highs.setOptionValue("simplex_iteration_limit", cap)
    highs.run()
    status = highs.getModelStatus()
    _raise_for_status(status, cap, highs.modelStatusToString(status))
    return np.asarray(highs.getSolution().col_value, dtype=float)


# The matrix forms of the residual check, of the outlier price in the dual
# bound and of the HiGHS hand-off, as they stood when the solve path read
# the full matrix, kept as references for the array forms.
def matrix_residuals_pass(model: LpModel, values: np.ndarray) -> bool:
    if values.min() < -RESIDUAL_TOL or values.max() > 1.0 + RESIDUAL_TOL:
        return False
    lhs = model.a_matrix @ values
    geq = model.senses == "G"
    return not (np.any(lhs[geq] < model.rhs[geq] - RESIDUAL_TOL)
                or np.any(lhs[~geq] > model.rhs[~geq] + RESIDUAL_TOL))


def matrix_z_price(model: LpModel, u: np.ndarray) -> np.ndarray:
    start, z_off = model.n_rows - model.n_budget_rows, model.n_pairs + model.n_facilities
    return model.a_matrix[start:, z_off:].T @ u


def coo_a_matrix(model: LpModel) -> sparse.csr_matrix:
    """The full constraint matrix as ``LpModel.a_matrix`` assembled it from
    scipy's COO form before ``_held_matrix`` served it, kept verbatim as the
    independent reference."""
    n, n_pairs = model.n_clients, model.n_pairs
    p_idx = np.arange(n_pairs)
    z_cols = n_pairs + model.n_facilities + np.arange(n)
    ones = np.ones(n_pairs)
    # coverage: sum_i x_ij + z_j >= 1; capacity: x_ij - y_i <= 0; budgets on z
    rows = [model.pair_cli, np.arange(n), n + p_idx, n + p_idx, n + n_pairs + model.budget_row]
    cols = [p_idx, z_cols, p_idx, n_pairs + model.pair_fac, z_cols]
    data = [ones, np.ones(n), ones, -ones, np.ones(n)]
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(model.n_rows, model.n_vars),
    )


def sliced_hand_off(model: LpModel, pairs: np.ndarray):
    """The CSC matrix, column costs and row lower and upper bounds of a held
    model holding ``pairs``, sliced out of the reference matrix: rows
    coverage, the pairs' capacity rows, budget; columns the pairs, y, z."""
    n, n_pairs = model.n_clients, model.n_pairs
    cols = np.concatenate([pairs, np.arange(n_pairs, model.n_vars)])
    rows = np.concatenate([np.arange(n), n + pairs, np.arange(n + n_pairs, model.n_rows)])
    geq = model.senses[rows] == "G"
    a_csc = coo_a_matrix(model)[rows][:, cols].tocsc()
    lower = np.where(geq, model.rhs[rows], -kHighsInf)
    upper = np.where(geq, kHighsInf, model.rhs[rows])
    return a_csc, model.c[cols], lower, upper


def priced_instance(rng):
    """Clients and 15-30 dear facilities in the unit square, and 1-10 cheap
    ones farther out, so that a client's cheapest service is often past its
    20 nearest pairs and a pricing round from ``nearest_start`` runs."""
    n_groups = int(rng.integers(1, 4))
    n = int(rng.integers(max(3, n_groups), 13))
    near, far = int(rng.integers(15, 31)), int(rng.integers(1, 11))
    groups = np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, n - n_groups)])
    facilities = np.vstack([rng.random((near, 2)), 1.0 + 4.0 * rng.random((far, 2))])
    costs = np.concatenate([10.0 ** rng.uniform(0, 2, near), 10.0 ** rng.uniform(-2, 0, far)])
    return MetricInstance(rng.random((n, 2)), groups, facilities, costs)


def far_cheap_instance():
    """Six clients amid 25 facilities of cost 100 and one free facility at
    (5, 5): every client is best served from the free one, which is not
    among its 20 nearest (``nearest_start``).  The clock start holds every
    pair: each client connects to the free facility, far beyond the rest."""
    rng = np.random.default_rng(7)
    facilities = np.vstack([rng.random((25, 2)), [[5.0, 5.0]]])
    costs = np.concatenate([np.full(25, 100.0), [0.0]])
    return tiny(rng.random((6, 2)), np.array([0, 0, 0, 1, 1, 1]), facilities, costs)


def assert_priced_matches_full(model, frac):
    full = model.c @ full_solve(model)
    assert frac.objective_value == pytest.approx(full, rel=1e-9, abs=1e-12)


class TestPricing:
    """The priced held model against the verbatim full-model path."""

    def test_start_is_the_whole_model_with_few_pairs(self, monkeypatch, random_suite):
        """No client of the random suite has more than 20 pairs, so from each
        client's 20 nearest HiGHS gets the full model's input and the points
        are bit for bit equal."""
        use_nearest_start(monkeypatch)
        for inst, budgets in random_suite:
            for fairness in (PER_GROUP, AGGREGATE):
                model = build_flfo_lp(inst, budgets, fairness)
                assert len(fairfl.lp._start_pairs(model)) == model.n_pairs
                with LpChain() as chain:
                    frac = chain.solve(model)
                    assert chain.stats["pricing_rounds"] == 0
                full = full_solve(model)
                assert np.array_equal(point(frac), full)
                assert frac.objective_value == float(model.c @ full)

    @pytest.mark.parametrize("seed", [0, 71, 1, 2])
    def test_priced_matches_full_on_synthetic_sweeps(self, seed):
        inst, _ = generate_synthetic(SyntheticConfig(seed=seed))
        inst = prune_pairs(inst)
        for fairness in (PER_GROUP, AGGREGATE):
            with LpChain() as chain:
                for pct in range(1, 11):
                    model = build_flfo_lp(inst, budgets_from_pct(inst, pct), fairness)
                    frac = chain.solve(model)
                    if pct in (1, 4, 7, 10):
                        assert_priced_matches_full(model, frac)

    def test_priced_matches_full_on_random_budget_chains(self, monkeypatch):
        """60 fixed draws of an instance and a chain of 2-5 budget vectors,
        each chain solved in both modes from each client's 20 nearest pairs;
        pricing runs on 53 of the 120."""
        use_nearest_start(monkeypatch)
        rng = np.random.default_rng(1)
        rounds = []
        for _ in range(60):
            inst = priced_instance(rng)
            seq = [random_budgets(rng, inst) for _ in range(int(rng.integers(2, 6)))]
            for fairness in (PER_GROUP, AGGREGATE):
                with LpChain() as chain:
                    for b in seq:
                        model = build_flfo_lp(inst, b, fairness)
                        assert_priced_matches_full(model, chain.solve(model))
                    rounds.append(chain.stats["pricing_rounds"])
        assert sum(r > 0 for r in rounds) >= len(rounds) // 4  # pricing really ran

    def test_far_pairs_price_in(self, monkeypatch):
        use_nearest_start(monkeypatch)
        inst = far_cheap_instance()
        model = build_flfo_lp(inst, OutlierBudgets((0, 0)))
        with LpChain() as chain:
            frac = chain.solve(model)
            assert chain.stats["pricing_rounds"] >= 1 and chain.stats["priced_pairs"] >= 1
        assert_priced_matches_full(model, frac)
        assert frac.y[25] == pytest.approx(1.0)

    def test_counters_on_synthetic_sweeps(self):
        """Pinned pricing work of the pct 1..10 chains; seed 1 prices."""
        expected = {
            (0, PER_GROUP): (0, 0), (0, AGGREGATE): (0, 0),
            (1, PER_GROUP): (4, 43), (1, AGGREGATE): (1, 4),
        }
        for seed in (0, 1):
            inst, _ = generate_synthetic(SyntheticConfig(seed=seed))
            inst = prune_pairs(inst)
            for fairness in (PER_GROUP, AGGREGATE):
                with LpChain() as chain:
                    for pct in range(1, 11):
                        chain.solve(build_flfo_lp(inst, budgets_from_pct(inst, pct), fairness))
                    stats = chain.stats
                assert (stats["cold"], stats["warm"], stats["memo"]) == (1, 9, 0)
                assert (stats["pricing_rounds"], stats["priced_pairs"]) == expected[seed, fairness]

    def test_counters_on_merged_sweep_chains(self, monkeypatch):
        """Pinned work of a sweep's one LP chain over pct 1..10: the fair
        pass (lpr-f, or the fair LP alone for lp_obj), one switch, then the
        aggregate pass; lp_obj after lpr-f comes from the memo.  One HiGHS
        copy is built for the cold start, the switch and each pricing round,
        and at most one is alive at a time."""
        stats = []
        copies = {"built": 0, "live": 0, "peak": 0}

        class Recording(LpChain):
            def close(self):
                stats.append(dict(self.stats))
                super().close()

        class Counted(_Highs):
            def __init__(self):
                super().__init__()
                copies["built"] += 1
                copies["live"] += 1
                copies["peak"] = max(copies["peak"], copies["live"])

            def __del__(self):
                copies["live"] -= 1

        monkeypatch.setattr(fairfl.cli, "LpChain", Recording)
        monkeypatch.setattr(fairfl.lp, "_Highs", Counted)
        pricing = {0: (0, 0), 1: (5, 45)}
        for seed in (0, 1):
            cfg = resolve_config(build_parser().parse_args(["sweep", "--dataset", "synthetic", "--seed", str(seed)]))
            inst, _ = prepare_instance(cfg)
            for algos, memo in ((["lpr-f", "lpr-nf"], 10), (["lpr-nf"], 0)):
                stats.clear()
                copies.update(built=0, peak=0)
                run_sweep(inst, dict(cfg, algos=algos, pcts=list(range(1, 11))))
                assert len(stats) == 1
                got = stats[0]
                assert (got["cold"], got["warm"], got["switch"], got["memo"]) == (1, 18, 1, memo)
                assert (got["pricing_rounds"], got["priced_pairs"]) == pricing[seed]
                assert copies["built"] == got["cold"] + got["switch"] + got["pricing_rounds"]
                assert (copies["peak"], copies["live"]) == (1, 0)

    def test_pivot_cap_spans_pricing_rounds(self, monkeypatch):
        use_nearest_start(monkeypatch)
        model = build_flfo_lp(far_cheap_instance(), OutlierBudgets((0, 0)))
        with LpChain() as chain:
            frac = chain.solve(model)
            total = chain.stats["simplex_iters"]
        priced = []
        original = fairfl.lp._priced_in
        monkeypatch.setattr(fairfl.lp, "_priced_in", lambda *a: priced.append(1) or original(*a))
        assert solve_lp(model, pivot_cap=total).objective_value == frac.objective_value
        priced.clear()
        with pytest.raises(IterationLimitError):
            solve_lp(model, pivot_cap=total - 1)
        assert priced  # the first round finished within the cap; a later one hit it


def traced_clocks(inst: MetricInstance) -> np.ndarray:
    """Each client's connection clock read off a ``DualTrace`` of GDF-NF at
    a budget of 0, whose events are the free run's: nobody withdraws before
    the last client connects.  inf for a client no event connects."""
    trace = DualTrace()
    gdf_nf(inst, 0, trace)
    clocks = np.full(inst.n_clients, np.inf)
    for _, t, _, clients in trace.events:
        clocks[list(clients)] = t
    return clocks


def nearest_pair(model: LpModel, j: int) -> int:
    """Client j's nearest allowed pair, lowest facility index on ties."""
    dist = model.inst.distances()
    return min(np.flatnonzero(model.pair_cli == j).tolist(),
               key=lambda p: (dist[model.pair_fac[p], j], model.pair_fac[p]))


def brute_force_start(model: LpModel, clocks: np.ndarray) -> np.ndarray:
    """The clock rule pair by pair: ``d_ij <= 1.5 * alpha_j``, or the pair
    is the client's nearest allowed one."""
    dist, held = model.inst.distances(), []
    for j in range(model.n_clients):
        nearest = nearest_pair(model, j)
        held += [p for p in np.flatnonzero(model.pair_cli == j).tolist()
                 if dist[model.pair_fac[p], j] <= 1.5 * clocks[j] or p == nearest]
    return np.array(sorted(held), dtype=np.int64)


def start_cases():
    """Synthetic seeds 0 and 3, pruned and unpruned, and 40 small draws on
    integer coordinates, where distances tie at every turn, every other one
    pruned."""
    rng = np.random.default_rng(1729)
    cases = []
    for seed in (0, 3):
        inst, _ = generate_synthetic(SyntheticConfig(seed=seed))
        cases += [inst, prune_pairs(inst)]
    for t in range(40):
        n, m = int(rng.integers(2, 60)), int(rng.integers(2, 80))
        inst = tiny(rng.integers(0, 4, (n, 2)), rng.integers(0, 2, n), rng.integers(0, 4, (m, 2)), np.ones(m))
        cases.append(prune_pairs(inst) if t % 2 else inst)
    return cases


class TestClockStart:
    """A cold copy holds every allowed pair with ``d_ij <= 1.5 * alpha_j``,
    ``alpha_j`` the client's clock in the free GDF run, plus each client's
    nearest allowed pair."""

    def test_start_pairs_equal_the_brute_force_rule(self):
        for inst in start_cases():
            model = build_flfo_lp(inst, OutlierBudgets((0,) * inst.n_groups))
            start = _start_pairs(model)
            assert start.dtype == np.int64
            assert np.array_equal(start, brute_force_start(model, traced_clocks(inst)))

    def test_each_client_holds_its_nearest_pair(self):
        """Also where the rule holds no pair of a client: two free facilities
        4e-10 either side of client 0, which connects at clock 0 (within GDF's
        1e-9 tolerance), so only the nearest-pair clause holds one of its
        pairs, and the lower facility index wins the tie."""
        ties = tiny([(0, 0), (3, 0)], [0, 0], [(-4e-10, 0), (4e-10, 0), (3, 0)], [0.0, 0.0, 0.0])
        assert ties.distances()[0, 0] == ties.distances()[1, 0] > 0.0
        for inst in start_cases() + [ties, prune_pairs(ties)]:
            model = build_flfo_lp(inst, OutlierBudgets((0,) * inst.n_groups))
            held = set(_start_pairs(model).tolist())
            assert all(nearest_pair(model, j) in held for j in range(inst.n_clients))
        for inst in (ties, prune_pairs(ties)):
            model = build_flfo_lp(inst, OutlierBudgets((0,)))
            assert traced_clocks(inst)[0] == 0.0
            start = _start_pairs(model)
            assert model.pair_fac[start].tolist() == [0, 2] and model.pair_cli[start].tolist() == [0, 1]

    def test_unconnected_clients_bring_all_their_pairs(self, monkeypatch):
        """A free run that raises before connecting everyone leaves the rest
        at ``alpha_j = inf``: every facility at infinite cost (no client
        connects), and seed 0's record cut after its 200th event, as a run
        that raised there would leave it."""
        never = tiny([(0, 0), (1, 1), (2, 0)], [0, 1, 0], [(0, 1), (3, 3)], [np.inf, np.inf])
        model = build_flfo_lp(never, OutlierBudgets((0, 0)))
        assert np.all(np.isinf(connection_clocks(never)))
        assert np.array_equal(_start_pairs(model), np.arange(model.n_pairs))

        inst = prune_pairs(generate_synthetic(SyntheticConfig(seed=0))[0])
        clocks = connection_clocks(inst)
        run, events = fairfl.greedy._free_runs[inst], 200
        cut = type(run)(
            clients=run.clients[: run.ends[events]], opens=run.opens[:events], time=run.time[:events],
            fac=run.fac[:events], ends=run.ends[: events + 1], starts=run.starts[run.starts <= events],
        )
        monkeypatch.setitem(fairfl.greedy._free_runs, inst, cut)
        left = np.ones(inst.n_clients, dtype=bool)
        left[cut.clients] = False
        assert 0 < left.sum() < inst.n_clients
        clocks[left] = np.inf
        assert np.array_equal(connection_clocks(inst), clocks)
        model = build_flfo_lp(inst, budgets_from_pct(inst, 5))
        start = _start_pairs(model)
        assert np.array_equal(start, brute_force_start(model, clocks))
        assert np.array_equal(np.bincount(model.pair_cli[start], minlength=inst.n_clients)[left],
                              np.bincount(model.pair_cli, minlength=inst.n_clients)[left])
        with LpChain() as chain:
            assert_priced_matches_full(model, chain.solve(model))

    def test_priced_matches_full(self, random_suite):
        """The random suite, 60 draws of ``priced_instance`` with a chain of
        2-5 budget vectors each, and ``far_cheap_instance``, in both modes."""
        rng = np.random.default_rng(1)
        cases = [(inst, [budgets]) for inst, budgets in random_suite]
        for _ in range(60):
            inst = priced_instance(rng)
            cases.append((inst, [random_budgets(rng, inst) for _ in range(int(rng.integers(2, 6)))]))
        cases.append((far_cheap_instance(), [OutlierBudgets((0, 0))]))
        for inst, seq in cases:
            for fairness in (PER_GROUP, AGGREGATE):
                with LpChain() as chain:
                    for budgets in seq:
                        model = build_flfo_lp(inst, budgets, fairness)
                        assert_priced_matches_full(model, chain.solve(model))

    def test_criterion_12_start_size(self, tmp_path):
        """The held start of criterion 12's cold fair LP at pct 5, counted
        without solving: 88,440 pairs from each client's 20 nearest."""
        path = write_large_table(tmp_path / "big.csv")
        args = ["sweep", "--dataset", str(path), "--group-col", "grp", "--n", "4500",
                "--m", "100", "--epsilon", "0.1", "--seed", "0"]
        inst, _ = prepare_instance(resolve_config(build_parser().parse_args(args)))
        model = build_flfo_lp(inst, budgets_from_pct(inst, 5))
        assert len(_start_pairs(model)) == 41_340
        assert len(nearest_start()(model)) == 88_440


class TestArrayForms:
    """What the solve path computes from the pair arrays against the same
    quantities read from the full matrix."""

    @staticmethod
    def passes(model, values):
        try:
            _verify_residuals(model, values)
        except LpError:
            return False
        return True

    def test_residual_check_matches_the_matrix_form(self, random_suite):
        rng = np.random.default_rng(2718)
        verdicts = []
        for inst, budgets in random_suite:
            for fairness in (PER_GROUP, AGGREGATE):
                model = build_flfo_lp(inst, budgets, fairness)
                x = point(solve_lp(model))
                n_pairs, m = model.n_pairs, model.n_facilities
                y, z = x[n_pairs : n_pairs + m], x[n_pairs + m :]
                points = [x, x + rng.uniform(-3e-7, 3e-7, len(x))]
                # one capacity row over by 2e-7
                low = np.flatnonzero(y[model.pair_fac] <= 0.5)
                if low.size:
                    p = int(low[0])
                    capacity = x.copy()
                    capacity[p] = y[model.pair_fac[p]] + 2e-7
                    points.append(capacity)
                    assert not self.passes(model, capacity)
                # one budget row over: every client of a row with more clients than budget
                over = np.flatnonzero(np.bincount(model.budget_row) > model.budget_rhs)
                if over.size:
                    budget = x.copy()
                    budget[n_pairs + m + np.flatnonzero(model.budget_row == over[0])] = 1.0
                    points.append(budget)
                    with pytest.raises(LpError, match="inequality residual"):
                        _verify_residuals(model, budget)
                for values in points:
                    verdict = self.passes(model, values)
                    assert verdict == matrix_residuals_pass(model, values)
                    verdicts.append(verdict)
                u = rng.exponential(0.5, model.n_budget_rows)
                assert np.array_equal(u[model.budget_row], matrix_z_price(model, u))
        assert 0.1 < np.mean(verdicts) < 0.9  # both verdicts are exercised

    @pytest.mark.parametrize("fairness", [PER_GROUP, AGGREGATE])
    def test_hand_off_equals_the_sliced_matrix(self, monkeypatch, fairness):
        """The start model and every model rebuilt after a pricing round
        reach HiGHS byte for byte as sliced out of the full matrix.  Each
        client's 20 nearest pairs start both cases, so both price."""
        passed, built = [], []
        use_nearest_start(monkeypatch)

        class Recording(_Highs):
            def passModel(self, *args):
                passed.append(args)
                return super().passModel(*args)

        highs_model = fairfl.lp._highs_model
        monkeypatch.setattr(fairfl.lp, "_Highs", Recording)
        monkeypatch.setattr(fairfl.lp, "_highs_model",
                            lambda *a: built.append((a[0], a[1].copy())) or highs_model(*a))
        seed1 = prune_pairs(generate_synthetic(SyntheticConfig(seed=1))[0])
        cases = [
            (far_cheap_instance(), [OutlierBudgets((0, 0))]),
            (seed1, [budgets_from_pct(seed1, p) for p in range(1, 11)]),
        ]
        for inst, seq in cases:
            passed.clear()
            built.clear()
            with LpChain() as chain:
                for budgets in seq:
                    chain.solve(build_flfo_lp(inst, budgets, fairness))
                assert chain.stats["pricing_rounds"] >= 1
                assert len(passed) == len(built) == 1 + chain.stats["pricing_rounds"]
            for args, (model, pairs) in zip(passed, built):
                a_csc, cost, lower, upper = sliced_hand_off(model, pairs)
                assert args[:3] == (a_csc.shape[1], a_csc.shape[0], a_csc.nnz)
                assert args[6].tobytes() == cost.tobytes()
                assert args[9].tobytes() == lower.tobytes()
                assert args[10].tobytes() == upper.tobytes()
                for got, want in zip(args[11:14], (a_csc.indptr, a_csc.indices, a_csc.data)):
                    assert got.tobytes() == want.astype(got.dtype).tobytes()

    def test_held_matrix_equals_scipys_csc(self):
        """The numpy assembly gives scipy's arrays from the reference COO
        matrix byte for byte, dtypes included: over every pair, and over a
        start (each client's 20 nearest pairs), then priced pairs, sliced
        out of it, on both budget layouts (one row, one per group)."""
        rng = np.random.default_rng(5)
        seed1 = prune_pairs(generate_synthetic(SyntheticConfig(seed=1))[0])
        layouts = 0
        for inst in (far_cheap_instance(), seed1):
            start = None
            for fairness in (PER_GROUP, AGGREGATE):  # the switch keeps the pairs
                model = build_flfo_lp(inst, budgets_from_pct(inst, 5), fairness)
                start = nearest_start()(model) if start is None else start
                omitted = np.setdiff1d(np.arange(model.n_pairs), start)
                priced = np.sort(rng.choice(omitted, size=min(len(omitted), 300), replace=False))
                assert len(priced) > 0
                full = coo_a_matrix(model).tocsc()
                cases = [(np.arange(model.n_pairs), full)]
                cases += [(pairs, sliced_hand_off(model, pairs)[0]) for pairs in (start, np.concatenate([start, priced]))]
                for pairs, a_csc in cases:
                    want = a_csc.indptr.astype(np.int32), a_csc.indices.astype(np.int32), a_csc.data
                    for g, w in zip(_held_matrix(model, pairs), want):
                        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
                    layouts += 1
        assert layouts == 12

    def test_solve_path_never_builds_the_full_matrix(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("the full constraint matrix was built")

        added = record_priced_pairs(monkeypatch)
        for name in ("a_matrix", "senses", "rhs"):
            monkeypatch.setattr(LpModel, name, property(refuse))
        args = ["--dataset", "synthetic", "--seed", "1", "--algo", "lpr-f"]
        assert main(["sweep", *args, "--algo", "lpr-nf", "--pct", "3", "--pct", "4",
                     "--out", str(tmp_path / "s.csv")]) == 0
        assert added  # the sweep priced
        monkeypatch.undo()
        target = tmp_path / "model.mps"
        assert main(["solve", *args, "--pct", "3", "--dump-mps", str(target)]) == 0
        inst = prune_pairs(generate_synthetic(SyntheticConfig(seed=1))[0])
        model = build_flfo_lp(inst, budgets_from_pct(inst, 3))
        section = target.read_text().split("ROWS\n")[1].split("COLUMNS\n")[0]
        assert len(section.splitlines()) == 1 + model.n_rows


class TestCertificate:
    def test_bound_is_tight_and_below_for_any_duals(self, random_suite):
        rng = np.random.default_rng(99)
        for inst, budgets in random_suite[:50]:
            for fairness in (PER_GROUP, AGGREGATE):
                model = build_flfo_lp(inst, budgets, fairness)
                frac = solve_lp(model)
                tol = 1e-9 * max(1.0, abs(frac.objective_value))
                assert abs(frac.objective_value - frac.dual_bound) <= tol
                for _ in range(5):
                    v = rng.exponential(0.5, inst.n_clients)
                    u = rng.exponential(0.5, model.n_budget_rows)
                    assert _dual_bound(model, v, u) <= frac.objective_value + tol

    def test_pair_sums_equal_bincount_bit_for_bit(self, synthetic_seed0):
        # the pair sums add in bincount's order, so the bound, the residual
        # check and assignment_sums keep their bits; reference: the bincount forms
        rng = np.random.default_rng(5)
        for fairness in (PER_GROUP, AGGREGATE):
            model = build_flfo_lp(synthetic_seed0, budgets_from_pct(synthetic_seed0, 5), fairness)
            assert not model.pair_fac.flags.writeable
            frac = solve_lp(model)
            want = np.bincount(model.pair_cli, weights=frac.x_values, minlength=model.n_clients)
            assert frac.assignment_sums().tobytes() == want.tobytes()
            n_pairs, m = model.n_pairs, model.n_facilities
            for _ in range(5):
                v = rng.exponential(20.0, model.n_clients)
                u = rng.exponential(20.0, model.n_budget_rows)
                pair_term = np.minimum(0.0, model.c[:n_pairs] - v[model.pair_cli])
                open_term = model.c[n_pairs : n_pairs + m] + np.bincount(
                    model.pair_fac, weights=pair_term, minlength=m)
                outlier_term = model.c[n_pairs + m :] + u[model.budget_row] - v
                bound = float(v.sum() - model.budget_rhs @ u + np.minimum(0.0, open_term).sum()
                              + np.minimum(0.0, outlier_term).sum())
                assert _dual_bound(model, v, u).hex() == bound.hex()

    def test_dual_bound_holds_one_pair_length_array(self):
        # a pruned instance's pair arrays are read-only, and np.bincount
        # copies a read-only index array: the bound's peak would hold a
        # pair-length int64 copy of pair_fac beside its own pair term
        import tracemalloc

        rng = np.random.default_rng(0)
        n, m = 4500, 100
        inst = prune_pairs(MetricInstance(rng.random((n, 2)), rng.integers(0, 2, n), rng.random((m, 2)),
                                          rng.random(m)))
        model = build_flfo_lp(inst, OutlierBudgets((10, 10)))
        pair_bytes = model.n_pairs * np.dtype(np.int64).itemsize
        assert model.n_pairs >= 200_000 and not model.pair_fac.flags.writeable
        v, u = rng.random(n), rng.random(2)
        _dual_bound(model, v, u)
        tracemalloc.start()
        try:
            _dual_bound(model, v, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - pair_bytes < pair_bytes / 2  # beyond the pair term itself

    def test_perturbed_dual_raises(self, monkeypatch, synthetic_seed0):
        model = build_flfo_lp(synthetic_seed0, budgets_from_pct(synthetic_seed0, 5))
        duals = fairfl.lp._duals

        def perturbed(*a):
            v, u = duals(*a)
            return v * 1.01, u

        with LpChain() as chain:
            monkeypatch.setattr(fairfl.lp, "_duals", perturbed)
            with pytest.raises(LpCertificateError):
                chain.solve(model)
            monkeypatch.setattr(fairfl.lp, "_duals", duals)
            frac = chain.solve(model)  # the failed model was dropped; this one is certified
            assert chain.stats["cold"] == 1
        assert frac.objective_value - frac.dual_bound <= 1e-9 * frac.objective_value

    def test_skipped_candidate_raises(self, monkeypatch):
        use_nearest_start(monkeypatch)
        model = build_flfo_lp(far_cheap_instance(), OutlierBudgets((0, 0)))
        priced_in = fairfl.lp._priced_in
        # the last candidate is the last client's pair to the free facility
        monkeypatch.setattr(fairfl.lp, "_priced_in", lambda *a: priced_in(*a)[:-1])
        with pytest.raises(LpCertificateError):
            solve_lp(model)

    @staticmethod
    def assert_raises_optimized(command, perturbed):
        """Under ``python -O``, ``main(command)`` exits 3 with the dual-bound
        error when the coverage duals of each model for which ``perturbed``
        (an expression in the model ``m``) holds are raised by 1%."""
        code = (
            "import os\n"
            "import fairfl.lp as lp\n"
            "from fairfl.cli import main\n"
            "duals = lp._duals\n"
            f"lp._duals = lambda m, *a: (duals(m, *a)[0] * (1.01 if {perturbed} else 1.0), duals(m, *a)[1])\n"
            f"print(main({command}))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert out.stdout.strip().splitlines()[-1] == "3", out.stderr
        assert "dual bound" in out.stderr

    def test_certificate_survives_optimized_mode(self):
        self.assert_raises_optimized(
            "['solve', '--dataset', 'synthetic', '--algo', 'lpr-f', '--pct', '5']", "True")

    def test_switched_certificate_survives_optimized_mode(self):
        """The aggregate LP of a sweep, started from the fair LP's basis."""
        self.assert_raises_optimized(
            "['sweep', '--dataset', 'synthetic', '--algo', 'lpr-nf', '--pct', '5', '--out', os.devnull]",
            "m.fairness == lp.AGGREGATE")


def offset_instance(clients, facilities) -> MetricInstance:
    """One group, zero opening costs, pruned."""
    return prune_pairs(tiny(clients, np.zeros(len(clients), dtype=np.int64), facilities,
                            np.zeros(len(facilities))))


def offset_scan(n_offsets=2, low=-9.0, high=-4.0):
    """The draws of an offset scan: clients (0,0)x6, (1,0), then (1,a) for
    each of ``n_offsets`` offsets a log-uniform in [10**low, 10**high] from
    ``default_rng(0)``, then (1,1), (2,1); facilities (1,1.5), (2,0), (3,0),
    (1,0.75).  Every odd draw permutes the clients and then the facilities.
    Each draw is solved at a budget of all clients but three."""
    rng = np.random.default_rng(0)
    for draw in itertools.count():
        offsets = 10.0 ** rng.uniform(low, high, n_offsets)
        clients = np.array([(0, 0)] * 6 + [(1, 0)] + [(1, a) for a in offsets] + [(1, 1), (2, 1)], float)
        facilities = np.array([(1, 1.5), (2, 0), (3, 0), (1, 0.75)], float)
        if draw % 2:
            clients, facilities = clients[rng.permutation(len(clients))], facilities[rng.permutation(4)]
        yield clients, facilities


# draw 269 of the two-offset scan (a = 3.25e-8, b = 1.82e-9): dual simplex
# ends "optimal" with the dual bound 1.82e-9 short of the objective, beyond
# the allowed 1.75e-9
DRAW_269 = (
    [(0, 0), (1, 0), (1, 1), (2, 1), (0, 0), (1, 1.8153042427835124e-09), (0, 0), (0, 0), (0, 0),
     (0, 0), (1, 3.250264029858843e-08)],
    [(3, 0), (1, 0.75), (2, 0), (1, 1.5)],
)
# draw 1823 of the two-offset scan (a = 1.32e-7, b = 3.48e-7): dual simplex
# ends kUnknown
DRAW_1823 = (
    [(0, 0), (1, 0), (1, 1), (0, 0), (0, 0), (0, 0), (2, 1), (1, 3.4825754409075567e-07),
     (1, 1.3162536463099644e-07), (0, 0), (0, 0)],
    [(1, 1.5), (1, 0.75), (2, 0), (3, 0)],
)
# four offsets of 3.6e-10 to 4.0e-9: the bound falls 1.93e-9 short, and a
# polish at the usual dual tolerance leaves it so, since the reduced costs
# left are each within 1e-9
FOUR_OFFSETS = (
    [(1, 8.820555908472555e-10), (1, 1), (1, 3.981144453780151e-09), (0, 0), (0, 0), (1, 0), (2, 1),
     (0, 0), (1, 3.56758429810575e-10), (0, 0), (1, 6.931253941269508e-10), (0, 0), (0, 0)],
    [(1, 1.5), (2, 0), (3, 0), (1, 0.75)],
)
DUAL = int(simplex_constants.SimplexStrategy.kSimplexStrategyDual)
PRIMAL = int(simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)


def certified(frac) -> bool:
    return frac.objective_value - frac.dual_bound <= CERTIFICATE_TOL * max(1.0, abs(frac.objective_value))


def offset_budget(inst) -> OutlierBudgets:
    return OutlierBudgets((inst.n_clients - 3,))


class TestPolish:
    """Dual simplex can stop "optimal" with a reduced cost still negative by
    about a coordinate offset, beyond its own tolerance, or give up with
    kUnknown.  The chain then re-runs the held copy by primal simplex from
    its own basis at the lowest dual tolerance HiGHS accepts (a polish), and
    the next solve is by dual simplex at the usual tolerance again.

    The offset draws' repros fire when HiGHS holds the whole model, which
    each client's 20 nearest pairs are on their four facilities, so those
    tests start from ``nearest_start``; the clock start prices them."""

    @staticmethod
    def log_runs(monkeypatch) -> list:
        """Record each HiGHS run's simplex strategy, dual feasibility
        tolerance and model status, and each ``clearSolver``, which no
        solve calls."""
        runs = []

        class Logged(_Highs):
            def run(self):
                status = super().run()
                runs.append((self.getOptionValue("simplex_strategy")[1],
                             self.getOptionValue("dual_feasibility_tolerance")[1], self.getModelStatus()))
                return status

            def clearSolver(self):
                runs.append("clear")
                return super().clearSolver()

        monkeypatch.setattr(fairfl.lp, "_Highs", Logged)
        return runs

    @pytest.mark.parametrize("fairness", [PER_GROUP, AGGREGATE])
    @pytest.mark.parametrize("draw", [DRAW_269, FOUR_OFFSETS], ids=["draw269", "four_offsets"])
    def test_certificate_shortfall_is_polished(self, monkeypatch, draw, fairness):
        runs = self.log_runs(monkeypatch)
        use_nearest_start(monkeypatch)
        inst = offset_instance(*draw)
        with LpChain() as chain:
            frac = chain.solve(build_flfo_lp(inst, offset_budget(inst), fairness))
            assert chain.stats["polished"] == 1
        optimal = HighsModelStatus.kOptimal
        assert runs == [(DUAL, FEASIBILITY_TOL, optimal), (PRIMAL, POLISH_DUAL_TOL, optimal)]
        assert certified(frac)

    @pytest.mark.parametrize("fairness", [PER_GROUP, AGGREGATE])
    def test_near_zero_opening_cost_is_polished(self, monkeypatch, fairness):
        """One client on four facilities of cost 1, 0, 0 and 1e-9: dual
        simplex opens the last, for an objective of 1e-9 and a bound of
        -1e-9; primal simplex at the lower tolerance opens a free one."""
        runs = self.log_runs(monkeypatch)
        inst = tiny([(0, 0)], [0], [(0, 0)] * 4, [1.0, 0.0, 0.0, 1e-9])
        with LpChain() as chain:
            frac = chain.solve(build_flfo_lp(inst, OutlierBudgets((0,)), fairness))
            assert chain.stats["polished"] == 1
        optimal = HighsModelStatus.kOptimal
        assert runs == [(DUAL, FEASIBILITY_TOL, optimal), (PRIMAL, POLISH_DUAL_TOL, optimal)]
        assert (frac.objective_value, frac.dual_bound) == (0.0, 0.0)

    @pytest.mark.parametrize("fairness", [PER_GROUP, AGGREGATE])
    def test_unknown_status_is_polished(self, monkeypatch, fairness):
        runs = self.log_runs(monkeypatch)
        use_nearest_start(monkeypatch)
        inst = offset_instance(*DRAW_1823)
        with LpChain() as chain:
            frac = chain.solve(build_flfo_lp(inst, offset_budget(inst), fairness))
            assert chain.stats["polished"] == 1
        unknown = (DUAL, FEASIBILITY_TOL, HighsModelStatus.kUnknown)
        assert runs == [unknown, (PRIMAL, POLISH_DUAL_TOL, HighsModelStatus.kOptimal)]
        assert certified(frac)

    @pytest.mark.parametrize("draw", [DRAW_269, DRAW_1823, FOUR_OFFSETS])
    def test_next_warm_solve_is_by_dual_simplex(self, monkeypatch, draw):
        runs = self.log_runs(monkeypatch)
        use_nearest_start(monkeypatch)
        inst = offset_instance(*draw)
        with LpChain() as chain:
            chain.solve(build_flfo_lp(inst, offset_budget(inst)))
            assert runs[-1][:2] == (PRIMAL, POLISH_DUAL_TOL)
            runs.clear()
            model = build_flfo_lp(inst, OutlierBudgets((inst.n_clients - 4,)))
            frac = chain.solve(model)
            assert (chain.stats["warm"], chain.stats["polished"]) == (1, 1)
        assert runs == [(DUAL, FEASIBILITY_TOL, HighsModelStatus.kOptimal)]
        assert certified(frac)
        assert frac.objective_value == pytest.approx(solve_lp(model).objective_value, rel=1e-9)

    @pytest.mark.parametrize("n_offsets, low, high, first", [(2, -9.0, -4.0, 200), (8, -11.0, -9.0, 0)])
    def test_scan_slice_certifies(self, monkeypatch, n_offsets, low, high, first):
        """200 draws of a scan, every solve certified in both modes.  Draws
        200-399 of the two-offset scan hold three draws whose solves failed
        without the polish (269, 327 and 357).  Draws 0-199 of the
        eight-offset scan need the polish's lower dual tolerance."""
        use_nearest_start(monkeypatch)
        polished = 0
        for clients, facilities in itertools.islice(offset_scan(n_offsets, low, high), first, first + 200):
            inst = offset_instance(clients, facilities)
            for fairness in (PER_GROUP, AGGREGATE):
                with LpChain() as chain:
                    assert certified(chain.solve(build_flfo_lp(inst, offset_budget(inst), fairness)))
                    polished += chain.stats["polished"]
        assert polished > 0

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_clock_start_scan_slice_certifies(self, monkeypatch, seed):
        """One synthetic seed, pruned and unpruned, each swept in one chain
        over pct 1-10 in one mode and then the other, both orders, from the
        clock start: every solve certifies with no cleared solver state."""
        runs = self.log_runs(monkeypatch)
        solves = 0
        inst = generate_synthetic(SyntheticConfig(seed=seed))[0]
        for case in (inst, prune_pairs(inst)):
            for modes in ((PER_GROUP, AGGREGATE), (AGGREGATE, PER_GROUP)):
                with LpChain() as chain:
                    for fairness in modes:
                        for pct in range(1, 11):
                            assert certified(chain.solve(build_flfo_lp(case, budgets_from_pct(case, pct), fairness)))
                            solves += 1
        assert solves == 80 and "clear" not in runs


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
            assert got == expected  # written in full precision

    def test_dump_bytes_are_pinned(self, tmp_path):
        """``solve --dump-mps`` for lpr-nf on synthetic seed 1 at pct 3, by
        the digest its bytes had when ``a_matrix`` was assembled by scipy."""
        target = tmp_path / "model.mps"
        argv = ["solve", "--dataset", "synthetic", "--seed", "1", "--algo", "lpr-nf", "--pct", "3",
                "--dump-mps", str(target)]
        assert main(argv) == 0
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        assert digest == "0b1568a6aff9df980beb438242ec4099b5577506231a99f01b2766b9a5b854ed"

    @pytest.mark.parametrize("fairness", [PER_GROUP, AGGREGATE])
    def test_solver_reads_the_dump_back(self, tmp_path, synthetic_seed0, fairness):
        model = build_flfo_lp(synthetic_seed0, budgets_from_pct(synthetic_seed0, 5), fairness)
        path = tmp_path / "model.mps"
        write_mps(model, str(path))
        highs = _Highs()
        highs.setOptionValue("output_flag", False)
        assert highs.readModel(str(path)) == HighsStatus.kOk
        assert np.asarray(highs.getLp().col_cost_).tobytes() == model.c.tobytes()  # full precision
        highs.run()
        assert highs.getModelStatus() == HighsModelStatus.kOptimal
        objective = highs.getInfo().objective_function_value
        assert objective == pytest.approx(solve_lp(model).objective_value, rel=1e-9)
