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


def eager_pairs(dist):
    """The below-median pairs of the distance matrix ``dist``, built at once
    as client-major ``(fac, cli)`` index arrays: the reference for the pairs
    a pruned instance computes on first read.  A client whose every pair is
    cut keeps its nearest facility, lowest index on ties."""
    median = float(np.median(dist))
    keep = dist < median
    stranded = np.flatnonzero(~keep.any(axis=0))
    nearest = np.argmin(dist[:, stranded], axis=0) if stranded.size else np.empty(0, int)
    keep[nearest, stranded] = True
    cli, fac = np.nonzero(keep.T)  # client-major
    return fac, cli


def mask(n, dropped=()):
    """A dropped-client mask over ``n`` clients, True at the indices in
    ``dropped``."""
    out = np.zeros(n, dtype=bool)
    out[list(dropped)] = True
    return out


def outliers(sol):
    """``sol``'s dropped clients filed by group: one frozenset per group."""
    return tuple(frozenset(members[sol.dropped[members]].tolist()) for members in sol.inst.group_members)


def solution_parts(sol):
    """What defines a solution, in a form ``==`` compares: the open set, the
    dropped mask's bytes and both costs' bits."""
    return (sol.open, sol.dropped.tobytes(), float(sol.facility_cost).hex(), float(sol.connection_cost).hex())


def random_budgets(rng, inst):
    return OutlierBudgets(
        tuple(int(rng.integers(0, len(members) + 1)) for members in inst.group_members)
    )


def write_large_table(path, n_rows=6000, seed=7):
    """Criterion 12's six-feature, two-group (2:1) CSV table, drawn from
    ``default_rng(seed)``; returns ``path``."""
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c0,c1,c2,c3,c4,c5,grp\n")
        for row, g in zip(features, groups):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",{g}\n")
    return path


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
