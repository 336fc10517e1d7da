import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fairfl import GreedyError, MetricInstance, OutlierBudgets, gdf_f, gdf_nf, unfairness
from fairfl.greedy import DualTrace, _dual_fit
from conftest import random_budgets, random_instance


def tiny(client_pts, groups, fac_pts, costs):
    return MetricInstance(np.array(client_pts, float), groups, np.array(fac_pts, float), costs)


class TestEventMechanics:
    def test_surplus_opening_hand_sim(self):
        # f=2 with clients at d=0 and d=1: surplus t + max(0, t-1) hits 2
        # at t=1.5, both connect, total cost 2 + 0 + 1
        inst = tiny([[0.0], [1.0]], [0, 0], [[0.0]], [2.0])
        trace = DualTrace()
        sol = gdf_f(inst, OutlierBudgets((0,)), trace)
        assert sol.total_cost == pytest.approx(3.0)
        kinds = [e[0] for e in trace.events]
        assert kinds == ["open"]
        assert trace.events[0][1] == pytest.approx(1.5)
        assert trace.events[0][3] == (0, 1)

    def test_zero_cost_facility_opens_immediately(self):
        inst = tiny([[0.5], [2.0]], [0, 0], [[0.0]], [0.0])
        trace = DualTrace()
        sol = gdf_f(inst, OutlierBudgets((0,)), trace)
        assert trace.events[0] == ("open", 0.0, 0, ())
        connects = [e for e in trace.events if e[0] == "connect"]
        assert [e[1] for e in connects] == pytest.approx([0.5, 2.0])
        assert sol.total_cost == pytest.approx(2.5)

    def test_alpha_nondecreasing_and_unique_events(self, rng):
        for _ in range(20):
            inst = random_instance(rng, max_n=14, max_m=5)
            budgets = random_budgets(rng, inst)
            trace = DualTrace()
            gdf_f(inst, budgets, trace)
            times = [e[1] for e in trace.events]
            assert all(a <= b + 1e-12 for a, b in zip(times, times[1:]))
            opened = [e[2] for e in trace.events if e[0] == "open"]
            assert len(opened) == len(set(opened))
            connected = [j for e in trace.events for j in e[3]]
            assert len(connected) == len(set(connected))

    def test_surplus_paid_equals_cost_at_opening(self, rng):
        """Replay the event log; at each opening the active clients'
        accumulated budget beyond their distance must equal the cost."""
        for _ in range(15):
            inst = random_instance(rng, max_n=12, max_m=5, min_n=4)
            budgets = random_budgets(rng, inst)
            trace = DualTrace()
            gdf_f(inst, budgets, trace)
            dist = inst.distances()
            sizes = np.array([len(g) for g in inst.group_members])
            targets = sizes - np.array(budgets.per_group)
            connected = np.zeros(inst.n_clients, bool)
            withdrawn = np.zeros(inst.n_clients, bool)
            counts = np.zeros(inst.n_groups, int)
            active_g = targets > 0
            withdrawn[~active_g[inst.groups]] = True

            def connect(j):
                connected[j] = True
                g = inst.groups[j]
                counts[g] += 1
                if counts[g] >= targets[g]:
                    active_g[g] = False
                    withdrawn[(inst.groups == g) & ~connected & ~withdrawn] = True

            for kind, t, fac, clients in trace.events:
                if kind == "open":
                    active = ~connected & ~withdrawn & active_g[inst.groups]
                    paid = np.maximum(0.0, t - dist[fac, active]).sum()
                    assert paid == pytest.approx(inst.open_costs[fac], abs=1e-9)
                for j in clients:
                    assert not connected[j] and not withdrawn[j]
                    connect(j)

    def test_service_distance_bounded_by_final_clock(self, rng):
        for _ in range(15):
            inst = random_instance(rng, max_n=12, max_m=5)
            budgets = random_budgets(rng, inst)
            sizes = np.array([len(g) for g in inst.group_members])
            targets = sizes - np.array(budgets.per_group)
            state = _dual_fit(inst, inst.groups, targets)
            if not state.open:
                continue
            dist = inst.distances()[np.asarray(sorted(state.open))]
            nearest = dist.min(axis=0)
            for j in np.flatnonzero(state.connected):
                assert nearest[j] <= state.alpha + 1e-9


class TestFairness:
    def test_exact_budget_use_and_unfairness_one(self, rng):
        for _ in range(25):
            inst = random_instance(rng, max_n=14, max_m=5)
            budgets = random_budgets(rng, inst)
            sol = gdf_f(inst, budgets)
            assert sol.outlier_counts() == budgets.per_group
            assert unfairness(budgets, sol) == 1.0

    def test_two_group_targets_respected_after_early_finish(self):
        # group 0 sits on the facility and finishes first; group 1 keeps
        # driving the clock until its own target is met
        pts = [[0.0], [0.1], [5.0], [6.0], [7.0]]
        groups = [0, 0, 1, 1, 1]
        inst = tiny(pts, groups, [[0.0]], [0.5])
        budgets = OutlierBudgets((0, 1))
        sol = gdf_f(inst, budgets)
        assert sol.outlier_counts() == (0, 1)
        assert sol.outliers[1] == frozenset({4})  # farthest group-1 client withdraws

    def test_single_group_equals_nonfair_bitwise(self, rng):
        for _ in range(100):
            inst = random_instance(rng, max_n=12, max_m=5, max_groups=1)
            budgets = random_budgets(rng, inst)
            fair = gdf_f(inst, budgets)
            nonfair = gdf_nf(inst, budgets.total)
            assert fair.open == nonfair.open
            assert fair.outliers == nonfair.outliers
            assert fair.assignment == nonfair.assignment
            assert fair.facility_cost == nonfair.facility_cost
            assert fair.connection_cost == nonfair.connection_cost


class TestEdges:
    def test_full_budget_serves_nobody(self):
        inst = tiny([[1.0], [2.0]], [0, 0], [[0.0]], [5.0])
        sol = gdf_nf(inst, 2)
        assert sol.open == frozenset()
        assert sol.outlier_counts() == (2,)
        assert sol.total_cost == 0.0

    def test_budget_validation(self):
        inst = tiny([[1.0]], [0], [[0.0]], [1.0])
        with pytest.raises(ValueError):
            gdf_nf(inst, 2)
        with pytest.raises(ValueError):
            gdf_f(inst, OutlierBudgets((2,)))

    def test_deterministic(self, rng):
        inst = random_instance(rng, max_n=12, max_m=5)
        budgets = random_budgets(rng, inst)
        a = gdf_f(inst, budgets)
        b = gdf_f(inst, budgets)
        assert a.open == b.open and a.outliers == b.outliers
        assert a.total_cost == b.total_cost


class TestGuards:
    def test_no_next_event_raises(self):
        inst = tiny([[0.0], [1.0]], [0, 0], [[0.0]], [np.inf])
        with pytest.raises(GreedyError, match="no next event"):
            gdf_f(inst, OutlierBudgets((0,)))
        with pytest.raises(GreedyError, match="no next event"):
            gdf_nf(inst, 1)

    def test_guard_survives_optimize_flag(self):
        code = (
            "import numpy as np\n"
            "from fairfl import GreedyError, MetricInstance, OutlierBudgets, gdf_f\n"
            "inst = MetricInstance(np.array([[0.0]]), [0], np.array([[0.0]]), [np.inf])\n"
            "try:\n"
            "    gdf_f(inst, OutlierBudgets((0,)))\n"
            "except GreedyError:\n"
            "    print('raised')\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert out.stdout.strip() == "raised", out.stderr
