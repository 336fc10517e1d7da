import numpy as np
import pytest

from fairfl import MetricInstance, OutlierBudgets


def random_instance(rng, max_n=12, max_m=6, max_groups=3, dim=2, min_n=2, cost_scale=1.0):
    """Random Euclidean instance with every group non-empty."""
    n_groups = int(rng.integers(1, max_groups + 1))
    n = int(rng.integers(max(min_n, n_groups), max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    groups = np.concatenate([np.arange(n_groups), rng.integers(0, n_groups, n - n_groups)])
    return MetricInstance(
        client_coords=rng.random((n, dim)),
        groups=groups,
        facility_coords=rng.random((m, dim)),
        open_costs=rng.random(m) * cost_scale,
    )


def random_budgets(rng, inst):
    return OutlierBudgets(
        tuple(int(rng.integers(0, len(members) + 1)) for members in inst.group_members)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture(scope="session")
def random_suite():
    """The acceptance criteria's 200 random (instance, budgets) pairs."""
    rng = np.random.default_rng(424242)
    suite = []
    for _ in range(200):
        inst = random_instance(rng, max_n=12, max_m=6, max_groups=3)
        suite.append((inst, random_budgets(rng, inst)))
    return suite
