import math
from dataclasses import replace

import numpy as np
import pytest

from fairfl import (
    AGGREGATE,
    PER_GROUP,
    FractionalSolution,
    LpChain,
    MetricInstance,
    OutlierBudgets,
    PartitionedClients,
    RoundingConfig,
    RoundingError,
    assign_nearest,
    build_flfo_lp,
    build_gap_instance,
    exact_flfo,
    identify_outliers,
    lpr_f,
    lpr_nf,
    lpr_pipeline,
    prune_pairs,
    rescale,
    round_facility_location,
    solve_lp,
)
from conftest import random_budgets, random_instance


def tiny(client_pts, groups, fac_pts, costs, pairs=None):
    """Instance from point lists; ``pairs`` is a set of (fac, cli) tuples."""
    inst = MetricInstance(np.array(client_pts, float), groups, np.array(fac_pts, float), costs)
    if pairs is None:
        return inst
    fac, cli = zip(*sorted(pairs, key=lambda p: (p[1], p[0])))
    return replace(inst, pair_fac=fac, pair_cli=cli)


def frac_from(inst, x_entries, y, z, objective=0.0):
    """Hand-built fractional solution; x_entries is {(fac, cli): value}."""
    items = sorted(x_entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    fac = np.array([i for (i, _), _ in items], dtype=np.int64)
    cli = np.array([j for (_, j), _ in items], dtype=np.int64)
    vals = np.array([v for _, v in items], dtype=float)
    return FractionalSolution(fac, cli, vals, np.asarray(y, float), np.asarray(z, float), objective)


class TestConfig:
    def test_epsilon_range(self):
        RoundingConfig(0.5)
        with pytest.raises(ValueError):
            RoundingConfig(0.51)
        with pytest.raises(ValueError):
            RoundingConfig(0.0)
        with pytest.raises(ValueError):
            RoundingConfig(0.1, open_threshold=0.0)


class TestIdentifyOutliers:
    def make(self, z, groups):
        inst = tiny([[float(j)] for j in range(len(z))], groups, [[0.0]], [1.0])
        frac = frac_from(inst, {}, [0.0], z)
        return inst, frac

    def test_threshold_inclusive(self):
        inst, frac = self.make([0.95, 0.5, 0.90], [0, 0, 0])
        part = identify_outliers(inst, frac, OutlierBudgets((3,)), eps=0.1)
        assert part.outliers == (frozenset({0, 2}),)
        assert part.retained == frozenset({1})

    def test_half_epsilon(self):
        inst, frac = self.make([0.49, 0.51], [0, 0])
        part = identify_outliers(inst, frac, OutlierBudgets((2,)), eps=0.5)
        assert part.outliers == (frozenset({1}),)

    def test_no_lp_outliers(self):
        inst, frac = self.make([0.0, 0.0], [0, 0])
        part = identify_outliers(inst, frac, OutlierBudgets((1,)), eps=0.25)
        assert part.outliers == (frozenset(),)
        assert part.retained == frozenset({0, 1})

    def test_violation_check_fires_per_group(self):
        inst, frac = self.make([1.0, 1.0], [0, 0])
        with pytest.raises(RoundingError):
            identify_outliers(inst, frac, OutlierBudgets((0,)), eps=0.1)

    def test_aggregate_mode_checks_total_only(self):
        inst, frac = self.make([1.0, 0.0], [0, 1])
        # per-group budgets (0, 1): group 0 would violate, but the
        # aggregate bound of 1 holds
        part = identify_outliers(inst, frac, OutlierBudgets((0, 1)), eps=0.1, fairness=AGGREGATE)
        assert part.outliers == (frozenset({0}), frozenset())
        with pytest.raises(RoundingError):
            identify_outliers(inst, frac, OutlierBudgets((0, 1)), eps=0.1)

    def test_eps_validation(self):
        inst, frac = self.make([0.0], [0])
        with pytest.raises(ValueError):
            identify_outliers(inst, frac, OutlierBudgets((1,)), eps=0.6)


class TestRescale:
    def test_normalizes_half_served_client(self):
        inst = tiny([[1.0]], [0], [[0.0], [2.0]], [1.0, 1.0])
        frac = frac_from(inst, {(0, 0): 0.25, (1, 0): 0.25}, [0.25, 0.25], [0.5], objective=1.0)
        part = PartitionedClients((frozenset(),), frozenset({0}))
        out = rescale(inst, frac, part, eps=0.5)
        assert np.allclose(out.x_values, [0.5, 0.5])
        assert np.allclose(out.y, [0.5, 0.5])

    def test_fully_served_client_unchanged(self):
        inst = tiny([[1.0]], [0], [[0.0], [2.0]], [1.0, 1.0])
        frac = frac_from(inst, {(0, 0): 0.6, (1, 0): 0.4}, [0.6, 0.4], [0.0], objective=1.0)
        part = PartitionedClients((frozenset(),), frozenset({0}))
        out = rescale(inst, frac, part, eps=0.5)
        assert np.allclose(out.x_values, [0.6, 0.4])
        assert np.allclose(out.y, [0.6, 0.4])

    def test_opening_scales_with_largest_rescale(self):
        inst = tiny([[1.0]], [0], [[0.0]], [1.0])
        frac = frac_from(inst, {(0, 0): 0.3}, [0.3], [0.7], objective=0.6)
        part = PartitionedClients((frozenset(),), frozenset({0}))
        out = rescale(inst, frac, part, eps=0.3)
        assert out.x_values[0] == pytest.approx(1.0)
        assert out.y[0] == pytest.approx(1.0)

    def test_guard_on_insufficient_mass(self):
        inst = tiny([[1.0]], [0], [[0.0]], [1.0])
        frac = frac_from(inst, {(0, 0): 0.1}, [0.1], [0.2], objective=1.0)
        part = PartitionedClients((frozenset(),), frozenset({0}))
        with pytest.raises(RoundingError, match="mass"):
            rescale(inst, frac, part, eps=0.5)

    def test_untouched_facility_keeps_opening(self):
        inst = tiny([[1.0]], [0], [[0.0], [5.0]], [1.0, 1.0])
        frac = frac_from(inst, {(0, 0): 0.5}, [0.5, 0.8], [0.5], objective=2.0)
        part = PartitionedClients((frozenset(),), frozenset({0}))
        out = rescale(inst, frac, part, eps=0.5)
        assert out.y[1] == pytest.approx(0.8)

    def test_chain_bound_on_lp_solutions(self, rng):
        checked = 0
        for _ in range(30):
            inst = random_instance(rng)
            budgets = random_budgets(rng, inst)
            frac = solve_lp(build_flfo_lp(inst, budgets))
            for eps in (0.1, 0.25, 0.5):
                part = identify_outliers(inst, frac, budgets, eps)
                out = rescale(inst, frac, part, eps)
                assert out.objective_value <= frac.objective_value / eps * (1 + 1e-6) + 1e-12
                sums = np.bincount(out.pair_cli, weights=out.x_values, minlength=inst.n_clients)
                for j in part.retained:
                    assert sums[j] == pytest.approx(1.0, abs=1e-7)
                assert (out.x_values <= out.y[out.pair_fac] + 1e-7).all()
                # zeroing the dropped clients' assignments never raises cost
                keep = np.isin(frac.pair_cli, np.array(sorted(part.retained), dtype=np.int64))
                cost_hat = float(
                    inst.open_costs @ frac.y
                    + inst.distances()[frac.pair_fac[keep], frac.pair_cli[keep]]
                    @ frac.x_values[keep]
                )
                assert cost_hat <= frac.objective_value + 1e-9
                checked += 1
        assert checked == 90


class TestRound:
    def test_threshold_opens_high_values(self):
        inst = tiny([[0.5]], [0], [[0.0], [2.0]], [1.0, 1.0])
        rescaled = frac_from(inst, {(0, 0): 1.0}, [0.98, 0.02], [0.0])
        part = PartitionedClients((frozenset(),), frozenset({0}))
        sol = round_facility_location(inst, part, rescaled, RoundingConfig(0.1, 0.5))
        assert sol.open == frozenset({0})

    def test_empty_open_falls_back_to_argmax(self):
        inst = tiny([[0.5]], [0], [[0.0], [2.0]], [1.0, 1.0])
        rescaled = frac_from(inst, {(0, 0): 1.0}, [0.4, 0.3], [0.0])
        part = PartitionedClients((frozenset(),), frozenset({0}))
        sol = round_facility_location(inst, part, rescaled, RoundingConfig(0.1, 0.5))
        assert sol.open == frozenset({0})

    def test_no_retained_clients_allows_empty_open(self):
        inst = tiny([[0.5]], [0], [[0.0]], [1.0])
        rescaled = frac_from(inst, {}, [0.3], [1.0])
        part = PartitionedClients((frozenset({0}),), frozenset())
        sol = round_facility_location(inst, part, rescaled, RoundingConfig(0.1, 0.5))
        assert sol.open == frozenset()
        assert sol.total_cost == 0.0

    def test_stranded_client_opens_allowed_argmax(self):
        # client 1 is only allowed facility 1; thresholding opens facility 0
        pairs = frozenset({(0, 0), (1, 1)})
        inst = tiny([[0.0], [10.0]], [0, 0], [[0.0], [10.0]], [1.0, 1.0], pairs)
        rescaled = frac_from(inst, {(0, 0): 1.0, (1, 1): 1.0}, [0.9, 0.4], [0.0, 0.0])
        part = PartitionedClients((frozenset(),), frozenset({0, 1}))
        sol = round_facility_location(inst, part, rescaled, RoundingConfig(0.1, 0.5))
        assert sol.open == frozenset({0, 1})

    def test_separated_clusters_open_their_facilities(self, rng):
        centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        clients = np.vstack([c + rng.normal(0, 0.1, (5, 2)) for c in centers])
        inst = MetricInstance(
            clients, np.zeros(15, int), centers, np.full(3, 1.0)
        )
        budgets = OutlierBudgets((0,))
        sol = lpr_f(inst, budgets, RoundingConfig(0.1))
        exact = exact_flfo(inst, budgets)
        assert sol.open == exact.open == frozenset({0, 1, 2})


class TestPipelines:
    def test_gap_family_trace(self):
        inst, budgets = build_gap_instance(100.0, 100)
        sol, frac = lpr_pipeline(inst, budgets, RoundingConfig(0.1), PER_GROUP)
        # every outlier value sits at 0.99, above the 0.9 threshold
        assert sol.open == frozenset()
        assert sol.outlier_counts() == (100,)
        assert sol.total_cost <= 100.0
        assert len(sol.outliers[0]) <= math.ceil(1.2 * 99)

    def test_integral_lp_solved_exactly(self):
        inst = tiny([[3.0]], [0], [[0.0]], [0.0])
        sol, frac = lpr_pipeline(inst, OutlierBudgets((0,)), RoundingConfig(0.25), PER_GROUP)
        assert sol.total_cost == pytest.approx(frac.objective_value)

    def test_violation_bound_and_lower_bound(self, rng):
        for _ in range(20):
            inst = random_instance(rng, max_n=10, max_m=4)
            budgets = random_budgets(rng, inst)
            for eps in (0.1, 0.5):
                sol, frac = lpr_pipeline(inst, budgets, RoundingConfig(eps), PER_GROUP)
                for used, cap in zip(sol.outlier_counts(), budgets.per_group):
                    assert used <= math.ceil((1 + 2 * eps) * cap)
                # the LP lower-bounds the rounded cost whenever the rounding
                # stayed within the true budgets (it may dip below when the
                # bicriteria slack drops extra clients)
                if all(u <= c for u, c in zip(sol.outlier_counts(), budgets.per_group)):
                    assert sol.total_cost >= frac.objective_value - 1e-7

    def test_aggregate_counts_bounded_in_total(self, rng):
        for _ in range(10):
            inst = random_instance(rng)
            budgets = random_budgets(rng, inst)
            sol = lpr_nf(inst, budgets, RoundingConfig(0.25))
            assert sum(sol.outlier_counts()) <= math.ceil(1.5 * budgets.total)

    def test_deterministic(self, rng):
        inst = random_instance(rng)
        budgets = random_budgets(rng, inst)
        a = lpr_f(inst, budgets)
        b = lpr_f(inst, budgets)
        assert a.open == b.open
        assert a.outliers == b.outliers
        assert a.assignment == b.assignment
        assert a.total_cost == b.total_cost

    def test_custom_rounder_hook(self):
        inst = tiny([[1.0]], [0], [[0.0], [2.0]], [0.0, 0.0])

        def open_everything(inst_, part, rescaled, cfg):
            return assign_nearest(inst_, range(inst_.n_facilities), frozenset().union(*part.outliers))

        sol, _ = lpr_pipeline(
            inst, OutlierBudgets((0,)), RoundingConfig(0.25), PER_GROUP, rounder=open_everything
        )
        assert sol.open == frozenset({0, 1})

    def test_runs_on_pruned_instance(self, rng):
        from fairfl import prune_pairs

        inst = prune_pairs(random_instance(rng, max_n=10, max_m=5))
        budgets = random_budgets(rng, inst)
        sol, frac = lpr_pipeline(inst, budgets, RoundingConfig(0.25), PER_GROUP)
        assert sol.total_cost >= frac.objective_value - 1e-7


# ---------------------------------------------------------------------------
# With one group, the per-group budget row is the aggregate one, so LPR-F and
# LPR-NF solve the same model and must agree bit for bit.


def _model_bytes(model) -> tuple:
    a = model.a_matrix
    return (model.c.tobytes(), a.shape, a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes(),
            model.senses.tobytes(), model.rhs.tobytes(), model.pair_fac.tobytes(),
            model.pair_cli.tobytes(), model.n_budget_rows)


def _frac_bytes(frac: FractionalSolution) -> tuple:
    return (frac.pair_fac.tobytes(), frac.pair_cli.tobytes(), frac.x_values.tobytes(),
            frac.y.tobytes(), frac.z.tobytes(), float(frac.objective_value).hex())


def _solution_parts(sol) -> tuple:
    return (sol.open, sol.outliers, list(sol.assignment.items()),
            float(sol.facility_cost).hex(), float(sol.connection_cost).hex())


def assert_lpr_fair_equals_nonfair(inst, budget_list, cfg, chained=False) -> None:
    """Models, fractional solutions and rounded solutions of LPR-F and
    LPR-NF are identical at every budget (solved on one chain per mode when
    ``chained``, as a sweep solves them)."""
    with LpChain() as fair_chain, LpChain() as nonfair_chain:
        for budgets in budget_list:
            assert _model_bytes(build_flfo_lp(inst, budgets, PER_GROUP)) == \
                _model_bytes(build_flfo_lp(inst, budgets, AGGREGATE))
            runs = []
            for mode, chain in ((PER_GROUP, fair_chain), (AGGREGATE, nonfair_chain)):
                try:
                    runs.append(lpr_pipeline(inst, budgets, cfg, mode, chain=chain if chained else None))
                except RoundingError as err:
                    runs.append(type(err))
            fair, nonfair = runs
            if fair is RoundingError or nonfair is RoundingError:
                assert fair is nonfair
                continue
            assert _frac_bytes(fair[1]) == _frac_bytes(nonfair[1])
            assert _solution_parts(fair[0]) == _solution_parts(nonfair[0])


class TestFairEqualsNonfairOnOneGroup:
    def test_random_suite_merged_into_one_group(self, random_suite):
        for t, (inst, budgets) in enumerate(random_suite):
            one = MetricInstance(inst.client_coords, np.zeros(inst.n_clients, dtype=np.int64),
                                 inst.facility_coords, inst.open_costs)
            if t % 2:
                one = prune_pairs(one)
            cfg = RoundingConfig((0.1, 0.25, 0.5)[t % 3])
            totals = sorted({budgets.total, inst.n_clients // 2, 0})
            assert_lpr_fair_equals_nonfair(one, [OutlierBudgets((b,)) for b in totals], cfg,
                                           chained=t % 4 < 2)

    def test_hypothesis_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(data):
            n = data.draw(st.integers(1, 12))
            m = data.draw(st.integers(1, 5))
            coord = st.one_of(st.integers(0, 3), st.floats(0.0, 3.0))
            clients = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
            facilities = data.draw(st.lists(st.tuples(coord, coord), min_size=m, max_size=m))
            costs = data.draw(st.lists(
                st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 5.0)),
                min_size=m, max_size=m))
            inst = MetricInstance(np.array(clients, float), np.zeros(n, dtype=np.int64),
                                  np.array(facilities, float), np.array(costs))
            if data.draw(st.booleans()):
                inst = prune_pairs(inst)
            budgets = [OutlierBudgets((b,)) for b in data.draw(st.lists(st.integers(0, n), min_size=1, max_size=3))]
            cfg = RoundingConfig(data.draw(st.sampled_from([0.1, 0.25, 0.5])),
                                 data.draw(st.sampled_from([0.5, 1.0])))
            assert_lpr_fair_equals_nonfair(inst, budgets, cfg, chained=data.draw(st.booleans()))

        check()
