"""LP relaxation of facility location with group-capped outliers.

Variables: one assignment value per allowed (facility, client) pair, one
opening value per facility, one outlier value per client, all boxed to
[0, 1].  Rows: each client is covered (assigned or outliered), assignment
never exceeds opening, and outlier mass per group (or in total, for the
non-fair variant) stays within budget.

Solving goes through the HiGHS solver bundled with scipy, which is
deterministic for a fixed sequence of operations.  An ``LpChain`` keeps one
HiGHS model per fairness mode and re-solves it from the previous optimal
basis when only the budget rows change, as they do across the outlier
percentages of a sweep; ``solve_lp`` is a chain of one solve.  Every
solution is re-verified against the model by an independent residual pass
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

try:  # private module: scipy releases without it fall back to linprog
    from scipy.optimize._highspy._core import (
        HighsLp,
        HighsModelStatus,
        HighsOptions,
        MatrixFormat,
        _Highs,
        kHighsInf,
        simplex_constants,
    )
except ImportError:
    _Highs = None

from .instance import MetricInstance, OutlierBudgets

PER_GROUP = "per_group"
AGGREGATE = "aggregate"

RESIDUAL_TOL = 1e-7


class LpError(RuntimeError):
    """Base class for LP solver failures."""


class InfeasibleError(LpError):
    pass


class UnboundedError(LpError):
    pass


class IterationLimitError(LpError):
    pass


@dataclass(frozen=True)
class LpModel:
    """Sparse LP in natural row senses ('G' for >=, 'L' for <=).

    Column layout: assignment variables for each allowed pair (client-major
    order, mirrored in ``pair_fac``/``pair_cli``), then one opening variable
    per facility, then one outlier variable per client.  Row layout: client
    coverage rows, pair capacity rows, then budget row(s).
    """

    c: np.ndarray
    a_matrix: sparse.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    pair_fac: np.ndarray
    pair_cli: np.ndarray
    n_facilities: int
    n_clients: int
    n_budget_rows: int
    fairness: str

    @property
    def n_pairs(self) -> int:
        return len(self.pair_fac)

    @property
    def n_vars(self) -> int:
        return self.n_pairs + self.n_facilities + self.n_clients

    @property
    def n_rows(self) -> int:
        return self.n_clients + self.n_pairs + self.n_budget_rows

    def var_role(self, var: int) -> tuple:
        """('x', facility, client) | ('y', facility) | ('z', client)."""
        if var < 0 or var >= self.n_vars:
            raise IndexError(var)
        if var < self.n_pairs:
            return ("x", int(self.pair_fac[var]), int(self.pair_cli[var]))
        var -= self.n_pairs
        if var < self.n_facilities:
            return ("y", var)
        return ("z", var - self.n_facilities)

    def row_role(self, row: int) -> tuple:
        """('cover', client) | ('capacity', facility, client) | ('budget', group)."""
        if row < 0 or row >= self.n_rows:
            raise IndexError(row)
        if row < self.n_clients:
            return ("cover", row)
        row -= self.n_clients
        if row < self.n_pairs:
            return ("capacity", int(self.pair_fac[row]), int(self.pair_cli[row]))
        return ("budget", row - self.n_pairs)


@dataclass(frozen=True)
class FractionalSolution:
    """A feasible point of the relaxation with its objective value."""

    pair_fac: np.ndarray
    pair_cli: np.ndarray
    x_values: np.ndarray
    y: np.ndarray
    z: np.ndarray
    objective_value: float

    def assignment_sums(self) -> np.ndarray:
        """Per-client total assignment mass (sum over allowed facilities)."""
        return np.bincount(self.pair_cli, weights=self.x_values, minlength=len(self.z))


def _budget_rhs(budgets: OutlierBudgets, fairness: str) -> np.ndarray:
    """Right-hand sides of the budget rows: one per group, or their total."""
    caps = budgets.per_group if fairness == PER_GROUP else (budgets.total,)
    return np.array(caps, dtype=float)


def build_flfo_lp(
    inst: MetricInstance, budgets: OutlierBudgets, fairness: str = PER_GROUP
) -> LpModel:
    """Assemble the relaxation for an instance and budget vector.

    ``per_group`` emits one budget row per group; ``aggregate`` collapses
    them into a single row capping the total outlier mass, which is the
    non-fair baseline's model.
    """
    if fairness not in (PER_GROUP, AGGREGATE):
        raise ValueError(f"unknown fairness mode {fairness!r}")
    budgets.validate_for(inst)
    fac, cli = inst.pair_arrays
    n_pairs = len(fac)
    n, m = inst.n_clients, inst.n_facilities
    dist = inst.distances()

    c = np.concatenate([dist[fac, cli], inst.open_costs, np.zeros(n)])

    y_off = n_pairs
    z_off = n_pairs + m
    p_idx = np.arange(n_pairs)

    # coverage: sum_i x_ij + z_j >= 1
    rows = [cli, np.arange(n)]
    cols = [p_idx, z_off + np.arange(n)]
    data = [np.ones(n_pairs), np.ones(n)]
    # capacity: x_ij - y_i <= 0
    rows += [n + p_idx, n + p_idx]
    cols += [p_idx, y_off + fac]
    data += [np.ones(n_pairs), -np.ones(n_pairs)]
    # budgets on z
    budget_rhs = _budget_rhs(budgets, fairness)
    n_budget = len(budget_rhs)
    budget_row = inst.groups if fairness == PER_GROUP else np.zeros(n, dtype=np.int64)
    rows.append(n + n_pairs + budget_row)
    cols.append(z_off + np.arange(n))
    data.append(np.ones(n))

    n_rows = n + n_pairs + n_budget
    a_matrix = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_rows, n_pairs + m + n),
    )
    senses = np.array(["G"] * n + ["L"] * (n_pairs + n_budget))
    rhs = np.concatenate([np.ones(n), np.zeros(n_pairs), budget_rhs])
    return LpModel(c, a_matrix, senses, rhs, fac, cli, m, n, n_budget, fairness)


def _verify_residuals(model: LpModel, values: np.ndarray) -> None:
    if values.min() < -RESIDUAL_TOL or values.max() > 1.0 + RESIDUAL_TOL:
        raise LpError("solution violates variable bounds beyond tolerance")
    lhs = model.a_matrix @ values
    geq = model.senses == "G"
    if np.any(lhs[geq] < model.rhs[geq] - RESIDUAL_TOL):
        worst = float((model.rhs[geq] - lhs[geq]).max())
        raise LpError(f"coverage residual {worst:.2e} beyond tolerance")
    leq = ~geq
    if np.any(lhs[leq] > model.rhs[leq] + RESIDUAL_TOL):
        worst = float((lhs[leq] - model.rhs[leq]).max())
        raise LpError(f"inequality residual {worst:.2e} beyond tolerance")


def _upper_form(model: LpModel) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Rows negated where needed so that every row reads ``a x <= b``."""
    sign = np.where(model.senses == "G", -1.0, 1.0)
    return model.a_matrix.multiply(sign[:, None]).tocsr(), sign * model.rhs


def _linprog_values(model: LpModel, cap: int) -> tuple[np.ndarray, int]:
    """Cold solve through ``scipy.optimize.linprog``, for scipy releases
    without the bundled HiGHS class; (point, simplex iterations)."""
    a_ub, b_ub = _upper_form(model)
    res = linprog(
        model.c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
        options={
            "presolve": True,
            "maxiter": cap,
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
        },
    )
    _raise_for_status(res.status, cap, res.message)
    return np.asarray(res.x, dtype=float), int(res.nit)


def _raise_for_status(status: int, cap: int, message: str) -> None:
    """Map a ``linprog`` status code (0 optimal, 1 iteration limit,
    2 infeasible, 3 unbounded, else failed) to the matching error."""
    if status == 1:
        raise IterationLimitError(f"pivot cap {cap} reached")
    if status == 2:
        raise InfeasibleError("budget rows make the relaxation infeasible")
    if status == 3:
        raise UnboundedError("relaxation reported unbounded")
    if status != 0:
        raise LpError(f"solver failed: {message}")


_LINPROG_STATUS = {} if _Highs is None else {
    HighsModelStatus.kOptimal: 0,
    HighsModelStatus.kIterationLimit: 1,
    HighsModelStatus.kInfeasible: 2,
    HighsModelStatus.kUnbounded: 3,
}


def _highs_model(model: LpModel):
    """A HiGHS instance holding ``model`` with the options ``linprog`` uses
    (dual simplex after presolve), so a cold solve matches it exactly."""
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
    options.presolve = "on"
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = 1e-9
    options.dual_feasibility_tolerance = 1e-9
    highs = _Highs()
    highs.passOptions(options)
    highs.passModel(lp)
    return highs


def _budget_start(model: LpModel) -> int:
    return model.n_rows - model.n_budget_rows


def _same_except_budgets(a: LpModel, b: LpModel) -> bool:
    """True when the two models differ at most in their budget-row bounds."""
    if a is b:
        return True
    if a.a_matrix.shape != b.a_matrix.shape or a.n_budget_rows != b.n_budget_rows:
        return False
    k = _budget_start(a)
    return all(
        np.array_equal(u, v)
        for u, v in (
            (a.c, b.c),
            (a.senses, b.senses),
            (a.rhs[:k], b.rhs[:k]),
            (a.pair_fac, b.pair_fac),
            (a.pair_cli, b.pair_cli),
            (a.a_matrix.indptr, b.a_matrix.indptr),
            (a.a_matrix.indices, b.a_matrix.indices),
            (a.a_matrix.data, b.a_matrix.data),
        )
    )


@dataclass
class _HeldModel:
    """One fairness mode's model inside a chain: the LpModel it was built
    from, its HiGHS copy (None on the linprog fallback), the budget rows'
    current upper bounds, and the solutions found so far by budget vector."""

    base: LpModel
    highs: object
    budget_upper: np.ndarray
    memo: dict = field(default_factory=dict)


class LpChain:
    """Solves a sequence of relaxations that differ only in their budgets.

    Holds one HiGHS model per fairness mode.  ``solve`` re-solves the held
    model from its last optimal basis after ``changeRowBounds`` on the
    budget rows when only those differ (dual simplex, typically tens of
    pivots where a cold solve takes thousands); any other model replaces
    the held one and is solved cold.  Solutions are memoised by budget
    vector, so a budget seen before returns the same point whatever was
    solved in between, and a chain's answers depend only on the order of
    its own calls.  Every returned point passes the residual check against
    the model it was asked for.  Use as a context manager, or call
    ``close``, to release the HiGHS models.  ``stats`` counts cold, warm
    and memoised solves and the simplex iterations spent.
    """

    def __init__(self):
        self._held: dict[str, _HeldModel] = {}
        self.stats = {"cold": 0, "warm": 0, "memo": 0, "simplex_iters": 0}

    def __enter__(self) -> "LpChain":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._held.clear()

    def solve(self, model: LpModel, pivot_cap: Optional[int] = None) -> FractionalSolution:
        held = self._held.get(model.fairness)
        warm = held is not None and _same_except_budgets(held.base, model)
        if not warm:
            self._held.pop(model.fairness, None)  # release before building anew
            held = _HeldModel(
                model,
                _highs_model(model) if _Highs is not None else None,
                model.rhs[_budget_start(model) :].copy(),
            )
            self._held[model.fairness] = held
        key = tuple(model.rhs[_budget_start(model) :].tolist())
        if key in held.memo:
            self.stats["memo"] += 1
        else:
            cap = int(pivot_cap) if pivot_cap is not None else 50 * (model.n_rows + model.n_vars)
            try:
                values, iters = self._run(held, model, cap)
            except LpError:
                del self._held[model.fairness]  # next solve starts cold
                raise
            self.stats["warm" if warm and held.highs is not None else "cold"] += 1
            self.stats["simplex_iters"] += iters
            held.memo[key] = (values, _fractional(model, values))
        values, frac = held.memo[key]
        _verify_residuals(model, values)
        return frac

    def solved(
        self, budgets: OutlierBudgets, fairness: str = PER_GROUP
    ) -> Optional[FractionalSolution]:
        """The memoised solution of the held ``fairness`` model at
        ``budgets``, or None if this chain has not solved it."""
        held = self._held.get(fairness)
        if held is None:
            return None
        hit = held.memo.get(tuple(_budget_rhs(budgets, fairness).tolist()))
        return hit[1] if hit else None

    @staticmethod
    def _run(held: _HeldModel, model: LpModel, cap: int) -> tuple[np.ndarray, int]:
        if held.highs is None:
            return _linprog_values(model, cap)
        highs = held.highs
        start = _budget_start(model)
        for r in np.flatnonzero(model.rhs[start:] != held.budget_upper):
            row = start + int(r)
            upper = float(model.rhs[row]) * (-1.0 if model.senses[row] == "G" else 1.0)
            highs.changeRowBounds(row, -kHighsInf, upper)
            held.budget_upper[r] = model.rhs[row]
        highs.setOptionValue("simplex_iteration_limit", cap)
        highs.run()
        status = highs.getModelStatus()
        _raise_for_status(_LINPROG_STATUS.get(status, -1), cap, highs.modelStatusToString(status))
        values = np.asarray(highs.getSolution().col_value, dtype=float)
        return values, int(highs.getInfo().simplex_iteration_count)


def _fractional(model: LpModel, values: np.ndarray) -> FractionalSolution:
    n_pairs = model.n_pairs
    return FractionalSolution(
        pair_fac=model.pair_fac,
        pair_cli=model.pair_cli,
        x_values=values[:n_pairs],
        y=values[n_pairs : n_pairs + model.n_facilities],
        z=values[n_pairs + model.n_facilities :],
        objective_value=float(model.c @ values),
    )


def solve_lp(
    model: LpModel, pivot_cap: Optional[int] = None, chain: Optional[LpChain] = None
) -> FractionalSolution:
    """Solve to optimality; deterministic for a fixed model.

    With ``chain`` the solve is one step of that chain (warm when only the
    budgets changed since its last solve of this fairness mode); without,
    it is a chain of one cold solve.  Raises InfeasibleError /
    UnboundedError / IterationLimitError on the corresponding solver
    statuses, the last when more than ``pivot_cap`` simplex iterations are
    needed.  The returned point is checked against the model's rows within
    1e-7 by a residual pass independent of the solver's own bookkeeping.
    """
    if chain is not None:
        return chain.solve(model, pivot_cap)
    with LpChain() as one_shot:
        return one_shot.solve(model, pivot_cap)


def build_gap_instance(f: float, m_clients: int) -> tuple[MetricInstance, OutlierBudgets]:
    """One facility of cost f with ``m_clients`` co-located clients and a
    budget of all but one, the family whose relaxation is a factor
    ``m_clients`` below any integral solution."""
    if m_clients < 2:
        raise ValueError("need at least 2 clients")
    if not f > 0:
        raise ValueError("opening cost must be positive")
    inst = MetricInstance(
        client_coords=np.zeros((m_clients, 1)),
        groups=np.zeros(m_clients, dtype=np.int64),
        facility_coords=np.zeros((1, 1)),
        open_costs=np.array([float(f)]),
    )
    return inst, OutlierBudgets((m_clients - 1,))


def write_mps(model: LpModel, path: str, name: str = "FAIRFL") -> None:
    """Dump the model in fixed-format MPS for cross-checking with external
    solvers.  Rows are named R%07d by row id and columns C%07d by variable
    id; use ``LpModel.var_role``/``row_role`` to translate back."""
    sense_tag = {"G": " G", "L": " L"}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"NAME          {name}\n")
        fh.write("ROWS\n")
        fh.write(" N  COST\n")
        for r in range(model.n_rows):
            fh.write(f"{sense_tag[str(model.senses[r])]}  R{r:07d}\n")
        fh.write("COLUMNS\n")
        a_csc = model.a_matrix.tocsc()
        for v in range(model.n_vars):
            entries = []
            if model.c[v] != 0.0:
                entries.append(("COST", model.c[v]))
            start, end = a_csc.indptr[v], a_csc.indptr[v + 1]
            for r, val in zip(a_csc.indices[start:end], a_csc.data[start:end]):
                entries.append((f"R{r:07d}", val))
            col = f"C{v:07d}"
            for k in range(0, len(entries), 2):
                chunk = entries[k : k + 2]
                line = f"    {col:<8}"
                for row_name, val in chunk:
                    line += f"  {row_name:<8}  {val:<12.8g}"
                fh.write(line.rstrip() + "\n")
        fh.write("RHS\n")
        for r in range(model.n_rows):
            if model.rhs[r] != 0.0:
                fh.write(f"    RHS       R{r:07d}  {model.rhs[r]:<12.8g}".rstrip() + "\n")
        fh.write("BOUNDS\n")
        for v in range(model.n_vars):
            fh.write(f" UP BND       C{v:07d}  1\n")
        fh.write("ENDATA\n")
