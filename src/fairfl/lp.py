"""LP relaxation of facility location with group-capped outliers.

Variables: one assignment value per allowed (facility, client) pair, one
opening value per facility, one outlier value per client, all boxed to
[0, 1].  Rows: each client is covered (assigned or outliered), assignment
never exceeds opening, and outlier mass per group (or in total, for the
non-fair variant) stays within budget.

An ``LpModel`` describes the relaxation by the instance's pair arrays, its
costs and the budget right-hand sides.  Every HiGHS copy is a slice of its
one layout; ``_held_matrix`` assembles a slice's constraint matrix, and over
every pair the matrix ``write_mps`` writes.

Solving goes through the HiGHS solver bundled with scipy (dual simplex;
Huangfu & Hall, Math. Prog. Comp. 2018), which is deterministic for a fixed
sequence of operations.  Importing this module loads no part of scipy.
Only scipy's compiled HiGHS bindings load, when the first HiGHS copy is
built (``_load_highs``; a missing or older scipy raises ``LpError`` there):
neither the solve path nor ``write_mps`` imports ``scipy.optimize`` or
``scipy.sparse``.  ``scipy.sparse`` loads when ``a_matrix``, a view kept
for tests and the benchmark's tracer, is first read, and ``scipy.optimize``
when ``linprog`` is read from this module.  The LP-free algorithms load
none of them.

An ``LpChain`` holds one HiGHS copy at a time and re-solves it from the
previous optimal basis when only the budget rows change, as they do across
the outlier percentages of a sweep.  Every copy is built by one method,
``LpChain._build``: the cold start, each pricing round, and the switch to
the same instance's other fairness mode (counted as a ``switch``), which
keeps the pairs and swaps the budget rows.  It releases the held copy before
building the next and carries that copy's optimal basis, so a sweep's
aggregate LP starts from its fair LP's basis; ``solve_lp`` is a chain of one
solve.  Each released copy's heap pages are handed back to the system
(glibc's ``malloc_trim``).

The held model is priced (column generation for facility location; Avella,
Sassano & Vasil'ev, Math. Prog. 2007).  It starts from every client's
``START_PAIRS`` nearest allowed pairs, by (distance, facility index), plus
every opening and outlier column and the budget rows; a client with at most
``START_PAIRS`` allowed pairs brings all of them, so on such models HiGHS
gets the whole LP.  After each optimal run the coverage duals
``v_j = max(0, row_dual_j)`` price the omitted pairs: every one with
``d_ij < v_j - PRICE_TOL`` is added (its column after the held pairs', its
capacity row before the budget rows) and the model is re-solved warm from
the last basis, until none prices in.  The point is then scattered back into
the full ``LpModel`` layout, omitted pairs at zero.

Every solution is certified twice before being returned: an independent
residual pass checks it against every row of the model, computed from the
pair arrays, and the Lagrangian bound of the duals (Cornuejols, Fisher &
Nemhauser, Mgmt. Sci. 1977), with the coverage and budget rows relaxed and
summed over *all* allowed pairs, must reach the objective within
``CERTIFICATE_TOL`` relative.  The bound is valid for any ``v, u >= 0``
because every variable is boxed to [0, 1], so it certifies both the
solver's optimality and the pricing's stopping rule.  A copy whose bound
falls short, or whose run ends with status ``kUnknown``, is re-run once by
primal simplex, at a lower dual tolerance, before that raises
(``LpChain._run``).
"""

from __future__ import annotations

import ctypes
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from .instance import MetricInstance, OutlierBudgets

if TYPE_CHECKING:  # annotations only; scipy loads with the first LP
    from scipy import sparse
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

PER_GROUP = "per_group"
AGGREGATE = "aggregate"

RESIDUAL_TOL = 1e-7
START_PAIRS = 20  # each client's nearest allowed pairs in a held model's first solve
PRICE_TOL = 1e-9  # an omitted pair prices in when d_ij < v_j - PRICE_TOL
CERTIFICATE_TOL = 1e-9  # objective - dual bound, relative to max(1, |objective|)
FEASIBILITY_TOL = 1e-9  # HiGHS's primal and dual feasibility tolerances
POLISH_DUAL_TOL = 1e-10  # HiGHS's dual feasibility tolerance in a polish, the lowest it accepts

try:  # glibc's, for LpChain._release
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]
    _MALLOC_TRIM.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # another C library
    _MALLOC_TRIM = None


class LpError(RuntimeError):
    """Base class for LP solver failures."""


class InfeasibleError(LpError):
    pass


class UnboundedError(LpError):
    pass


class IterationLimitError(LpError):
    pass


class LpCertificateError(LpError):
    """The duals' Lagrangian bound falls short of the reported objective."""


# scipy's HiGHS names, bound in this module by ``_load_highs``
_HIGHS_NAMES = (
    "HighsBasisStatus", "HighsModelStatus", "HighsOptions", "HighsStatus", "MatrixFormat",
    "ObjSense", "_Highs", "kHighsInf", "simplex_constants",
)
_CORE = "scipy.optimize._highspy._core"


def _load_highs() -> None:
    """Bind scipy's HiGHS bindings in this module, loading them on the first
    call.  Only the compiled module ``scipy.optimize._highspy._core`` loads,
    from scipy's package directory: neither ``scipy.optimize`` nor
    ``scipy.sparse`` is imported.  It is registered in ``sys.modules`` under
    its own name, so a later ``import scipy.optimize`` reuses it, and a
    module already there is used as it is.  A name already bound, such as a
    test's patch, is kept."""
    core = sys.modules.get(_CORE)
    if core is None:
        try:
            core = _import_core()
        except ImportError as exc:
            raise LpError(
                f"the LP solver needs scipy >= 1.15, whose {_CORE} holds the HiGHS bindings: {exc}"
            ) from exc
    names = globals()
    for name in _HIGHS_NAMES:
        names.setdefault(name, getattr(core, name))


def _import_core():
    """Load and register the extension module, or raise ImportError."""
    if _CORE in sys.modules:  # None there blocks the import
        raise ImportError(f"import of {_CORE} halted; None in sys.modules")
    import scipy
    from importlib.machinery import PathFinder
    from importlib.util import module_from_spec, spec_from_file_location

    package = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    found = PathFinder.find_spec("_core", [package])
    if found is None:
        raise ImportError(f"no module named {_CORE!r}")
    spec = spec_from_file_location(_CORE, found.origin)
    core = module_from_spec(spec)
    sys.modules[_CORE] = core
    try:
        spec.loader.exec_module(core)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return core


def __getattr__(name: str):
    """Load the HiGHS names on first access from outside (PEP 562), and
    ``scipy.optimize.linprog``, the patch point of perfbench/tracing.py,
    which the solve path never calls."""
    if name == "linprog":
        from scipy.optimize import linprog

        return linprog
    if name not in _HIGHS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_highs()
    return globals()[name]


@dataclass(frozen=True)
class LpModel:
    """The relaxation of ``inst`` at one budget vector, described by the
    instance's pair arrays, the column costs ``c`` and the budget
    right-hand sides, in natural row senses ('G' for >=, 'L' for <=, in
    ``senses``, with ``rhs``).  ``a_matrix``, a scipy view of
    ``_held_matrix`` kept for tests and the tracer, is built only when read.

    Column layout: assignment variables for each allowed pair (client-major
    order, mirrored in ``pair_fac``/``pair_cli``), then one opening variable
    per facility, then one outlier variable per client.  Row layout: client
    coverage rows, pair capacity rows, then budget row(s).  A HiGHS copy is
    the slice of this layout over its held pairs (``_highs_model``).
    """

    inst: MetricInstance = field(repr=False)
    fairness: str
    budget_rhs: np.ndarray
    pair_fac: np.ndarray
    pair_cli: np.ndarray
    c: np.ndarray

    @property
    def n_facilities(self) -> int:
        return self.inst.n_facilities

    @property
    def n_clients(self) -> int:
        return self.inst.n_clients

    @property
    def n_budget_rows(self) -> int:
        return len(self.budget_rhs)

    @property
    def n_pairs(self) -> int:
        return len(self.pair_fac)

    @property
    def n_vars(self) -> int:
        return self.n_pairs + self.n_facilities + self.n_clients

    @property
    def n_rows(self) -> int:
        return self.n_clients + self.n_pairs + self.n_budget_rows

    @cached_property
    def budget_row(self) -> np.ndarray:
        """Each client's budget row: its group, or 0 for the aggregate row."""
        if self.fairness == PER_GROUP:
            return self.inst.groups
        return np.zeros(self.n_clients, dtype=np.int64)

    @cached_property
    def a_matrix(self) -> sparse.csc_matrix:
        from scipy import sparse

        indptr, indices, data = _held_matrix(self, np.arange(self.n_pairs))
        return sparse.csc_matrix((data, indices, indptr), shape=(self.n_rows, self.n_vars))

    @cached_property
    def senses(self) -> np.ndarray:
        return np.array(["G"] * self.n_clients + ["L"] * (self.n_pairs + self.n_budget_rows))

    @cached_property
    def rhs(self) -> np.ndarray:
        return np.concatenate([np.ones(self.n_clients), np.zeros(self.n_pairs), self.budget_rhs])


@dataclass(frozen=True)
class FractionalSolution:
    """A feasible point of the relaxation with its objective value."""

    pair_fac: np.ndarray
    pair_cli: np.ndarray
    x_values: np.ndarray
    y: np.ndarray
    z: np.ndarray
    objective_value: float
    dual_bound: Optional[float] = None  # Lagrangian bound certifying an LP optimum

    def assignment_sums(self) -> np.ndarray:
        """Per-client total assignment mass (sum over allowed facilities)."""
        return np.bincount(self.pair_cli, weights=self.x_values, minlength=len(self.z))


def build_flfo_lp(
    inst: MetricInstance, budgets: OutlierBudgets, fairness: str = PER_GROUP
) -> LpModel:
    """Describe the relaxation for an instance and budget vector.

    ``per_group`` emits one budget row per group; ``aggregate`` collapses
    them into a single row capping the total outlier mass, which is the
    non-fair baseline's model.
    """
    if fairness not in (PER_GROUP, AGGREGATE):
        raise ValueError(f"unknown fairness mode {fairness!r}")
    budgets.validate_for(inst)
    fac, cli = inst.pair_arrays
    caps = budgets.per_group if fairness == PER_GROUP else (budgets.total,)
    c = np.concatenate([inst.distances()[fac, cli], inst.open_costs, np.zeros(inst.n_clients)])
    return LpModel(inst, fairness, np.array(caps, dtype=float), fac, cli, c)


def _verify_residuals(model: LpModel, values: np.ndarray) -> None:
    """Check ``values`` against the variable boxes and every row of
    ``model``, each row computed from the pair arrays."""
    if values.min() < -RESIDUAL_TOL or values.max() > 1.0 + RESIDUAL_TOL:
        raise LpError("solution violates variable bounds beyond tolerance")
    n_pairs, m = model.n_pairs, model.n_facilities
    x, y, z = values[:n_pairs], values[n_pairs : n_pairs + m], values[n_pairs + m :]
    cover = np.bincount(model.pair_cli, weights=x, minlength=model.n_clients) + z
    if np.any(cover < 1.0 - RESIDUAL_TOL):
        raise LpError(f"coverage residual {float((1.0 - cover).max()):.2e} beyond tolerance")
    capacity = x - y[model.pair_fac]
    load = np.bincount(model.budget_row, weights=z, minlength=model.n_budget_rows)
    if np.any(capacity > RESIDUAL_TOL) or np.any(load > model.budget_rhs + RESIDUAL_TOL):
        worst = max(capacity.max(initial=0.0), (load - model.budget_rhs).max())
        raise LpError(f"inequality residual {float(worst):.2e} beyond tolerance")


def _raise_for_status(status: HighsModelStatus, cap: int, message: str) -> None:
    """Map a HiGHS model status to the matching error; return on optimal."""
    if status == HighsModelStatus.kOptimal:
        return
    if status == HighsModelStatus.kIterationLimit:
        raise IterationLimitError(f"pivot cap {cap} reached")
    if status == HighsModelStatus.kInfeasible:
        raise InfeasibleError("budget rows make the relaxation infeasible")
    if status == HighsModelStatus.kUnbounded:
        raise UnboundedError("relaxation reported unbounded")
    raise LpError(f"solver failed: {message}")


def _start_pairs(model: LpModel) -> np.ndarray:
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


def _held_matrix(model: LpModel, pairs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The constraint matrix of the slice of ``model`` holding ``pairs``
    (layout in ``LpModel``; ``a_matrix`` and ``write_mps`` read it with
    every pair) in compressed-column form: ``indptr``, ``indices`` (int32)
    and ``data``.  The entries are listed so that each column's rows ascend
    (x: coverage, then capacity; y: capacity rows in pair order; z:
    coverage, then budget), so a stable sort by column gives the canonical
    form, the arrays scipy's ``coo_matrix(...).tocsc()`` builds from them."""
    n, m, k = model.n_clients, model.n_facilities, len(pairs)
    x_cols, cap_rows, z_cols = np.arange(k), n + np.arange(k), k + m + np.arange(n)
    # coverage x_ij + z_j >= 1; capacity x_ij - y_i <= 0; budgets on z
    rows = np.concatenate([model.pair_cli[pairs], cap_rows, cap_rows, np.arange(n), n + k + model.budget_row])
    cols = np.concatenate([x_cols, x_cols, k + model.pair_fac[pairs], z_cols, z_cols])
    data = np.concatenate([np.ones(k), np.ones(k), np.full(k, -1.0), np.ones(n), np.ones(n)])
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(k + m + n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=k + m + n), out=indptr[1:])
    return indptr, rows[order].astype(np.int32), data[order]


def _highs_model(model: LpModel, pairs: np.ndarray):
    """A HiGHS instance holding the slice of ``model`` over ``pairs``: the
    rows and columns of ``model`` without the other pairs' columns and
    capacity rows, in ``model``'s order and senses (coverage rows bounded
    below by 1, the rest above by their right-hand sides).  It is solved by
    dual simplex without presolve.  Presolve finds nothing to remove in
    these models (every row and column survives it) and only costs time and
    a copy of the LP.  The arrays go through ``passModel``'s array overload,
    which copies each in one block; it needs an explicit all-zero
    (continuous) integrality."""
    _load_highs()
    n, k = model.n_clients, len(pairs)
    indptr, indices, data = _held_matrix(model, pairs)
    n_col, n_row = k + model.n_facilities + n, n + k + model.n_budget_rows
    cost = np.concatenate([model.c[pairs], model.c[model.n_pairs :]])
    lower = np.concatenate([np.ones(n), np.full(n_row - n, -kHighsInf)])
    upper = np.concatenate([np.full(n, kHighsInf), np.zeros(k), model.budget_rhs])
    options = HighsOptions()
    options.output_flag = False
    options.log_to_console = False
    options.presolve = "off"
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.primal_feasibility_tolerance = FEASIBILITY_TOL
    options.dual_feasibility_tolerance = FEASIBILITY_TOL
    highs = _Highs()
    highs.passOptions(options)
    status = highs.passModel(
        n_col, n_row, len(data), int(MatrixFormat.kColwise), int(ObjSense.kMinimize), 0.0,
        cost, np.zeros(n_col), np.ones(n_col), lower, upper,
        indptr, indices, data, np.zeros(n_col, dtype=np.int32),
    )
    if status == HighsStatus.kError:
        raise LpError("HiGHS rejected the model")
    return highs


def _duals(model: LpModel, row_dual) -> tuple[np.ndarray, np.ndarray]:
    """Coverage duals ``v`` and budget duals ``u`` (both >= 0) from the row
    duals of a held model, whose budget rows are its last.  HiGHS signs an
    active row bound's dual as the objective moves with it: >= 0 on a
    coverage row's lower bound, <= 0 on a budget row's upper bound."""
    dual = np.asarray(row_dual)
    return np.maximum(0.0, dual[: model.n_clients]), np.maximum(0.0, -dual[-model.n_budget_rows :])


def _priced_in(model: LpModel, held: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pairs not among ``held`` whose reduced cost ``d_ij - v_j`` is
    below ``-PRICE_TOL``, ascending."""
    n_pairs = model.n_pairs
    omitted = np.ones(n_pairs, dtype=bool)
    omitted[held] = False
    return np.flatnonzero(omitted & (model.c[:n_pairs] < v[model.pair_cli] - PRICE_TOL))


def _dual_bound(model: LpModel, v: np.ndarray, u: np.ndarray) -> float:
    """The Lagrangian bound at coverage duals ``v`` and budget duals ``u``:
    ``sum v - u.B + sum_i min(0, f_i + sum_(i,j) min(0, d_ij - v_j))
    + sum_j min(0, u_g(j) - v_j)``, summed over every allowed pair.  The
    capacity rows and the [0, 1] boxes stay in the inner problem, so this is
    a lower bound on the relaxation for any ``v, u >= 0``."""
    n_pairs, m = model.n_pairs, model.n_facilities
    z_off = n_pairs + m
    pair_term = np.minimum(0.0, model.c[:n_pairs] - v[model.pair_cli])
    open_term = model.c[n_pairs:z_off] + np.bincount(model.pair_fac, weights=pair_term, minlength=m)
    outlier_term = model.c[z_off:] + u[model.budget_row] - v
    return float(
        v.sum()
        - model.budget_rhs @ u
        + np.minimum(0.0, open_term).sum()
        + np.minimum(0.0, outlier_term).sum()
    )


class LpChain:
    """Solves a sequence of relaxations of one instance that differ only in
    their budget rows.

    Holds the LpModel last solved, the held ``pairs`` (the start pairs,
    then those priced in, in order) and one HiGHS copy of the model's slice
    over them (``_highs_model``), built by ``_build``.  ``solve`` re-solves the
    held copy from its last optimal basis after ``changeRowBounds`` on the
    budget rows when the model is of the same instance object and fairness
    mode (dual simplex, typically tens of pivots where a cold solve takes
    thousands), pricing in any pair the new duals call for; pairs priced in
    stay for later solves.  A model of the same instance in the other mode
    is a mode switch: the new mode's copy is built over the same pairs from
    the old optimal basis, which takes a small share of a cold solve's
    pivots.  With one group the two modes are the same LP: no switch
    happens, and a budget solved in one mode answers the other.  A model of
    any other instance replaces the held one and is solved cold from its
    start pairs.  Solutions of the held instance are memoised by budget
    vector, so a budget seen before returns the same point whatever was
    solved in between, and a chain's answers depend only on the order of
    its own calls.  Every returned point passes the residual check against
    the model it was asked for and carries its dual bound.  Use as a
    context manager, or call ``close``, to release the HiGHS copy.
    ``stats`` counts cold, warm, mode-switch and memoised solves, the
    simplex iterations spent over all pricing rounds, the pricing rounds run,
    the pairs they added, and the polishing re-runs by primal simplex
    (``_run``).
    """

    def __init__(self):
        self._base: Optional[LpModel] = None
        self._highs: Optional[_Highs] = None
        self._pairs: Optional[np.ndarray] = None
        self._memo: dict = {}
        self.stats = {
            "cold": 0, "warm": 0, "switch": 0, "memo": 0,
            "simplex_iters": 0, "pricing_rounds": 0, "priced_pairs": 0, "polished": 0,
        }

    def __enter__(self) -> "LpChain":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release the held copy and forget its solutions."""
        if self._highs is not None:
            self._release()
        self._base = self._pairs = None
        self._memo.clear()

    def _release(self) -> None:
        """Free the HiGHS copy and hand the heap pages it held back to the
        system; glibc keeps them otherwise, so the resident set would follow
        allocation order.  Without glibc's ``malloc_trim`` only the copy is
        freed."""
        self._highs = None
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)

    def _build(self, model: LpModel, pairs: np.ndarray) -> None:
        """Hold a HiGHS copy of ``model`` over ``pairs``, releasing the held
        copy first so that one is alive at a time.  With no copy held these
        are the start pairs.  Otherwise they are the held pairs, then any
        appended, and the held copy's optimal basis carries over: appended
        pairs enter with their columns at zero before y and their capacity
        rows basic before the budget rows; when the count of budget rows
        changes (a mode switch) the new budget rows replace the old, basic,
        and the basis goes in as alien, which HiGHS completes.  A copy is
        rebuilt rather than extended by ``addCols``/``addRows``, which would
        keep about 5 MB of old solver state per pricing round."""
        basis = None
        if self._highs is not None:
            basis = self._highs.getBasis()
            self._release()  # one copy at a time
            basic, held, k = HighsBasisStatus.kBasic, len(self._pairs), len(pairs) - len(self._pairs)
            first = model.n_clients + held  # the first budget row
            rows = list(basis.row_status)
            rows[first:first] = [basic] * k
            if model.n_budget_rows != self._base.n_budget_rows:
                rows[first + k :] = [basic] * model.n_budget_rows
                basis.alien = True
            basis.row_status = rows
            del rows  # one Python object per status: none stays alive through the build
            if k:  # a switch appends none
                cols = list(basis.col_status)
                cols[held:held] = [HighsBasisStatus.kLower] * k
                basis.col_status = cols
                del cols
        self._base, self._pairs = model, pairs
        self._highs = _highs_model(model, pairs)
        if basis is not None and self._highs.setBasis(basis) == HighsStatus.kError:
            raise LpError("HiGHS rejected the carried basis")

    def _run(self, model: LpModel, cap: int) -> tuple[np.ndarray, float, int, int, int, int]:
        """Set ``model``'s budget rows, solve by dual simplex, and price
        until no omitted pair prices in, with at most ``cap`` simplex
        iterations over all rounds.  A copy whose run ends with HiGHS status
        ``kUnknown``, or whose dual bound falls short of the objective by
        more than ``CERTIFICATE_TOL``, is polished: run once more by primal
        simplex from its own basis, at ``POLISH_DUAL_TOL``.  Only then does
        either raise.  The polish's iterations count.  Returns the certified
        point, the held slice's values scattered into ``model``'s layout
        with the omitted pairs at zero, its dual bound, and the iterations,
        pricing rounds, pairs added and polishing re-runs."""
        strategy = simplex_constants.SimplexStrategy
        # a copy polished in an earlier solve goes back to dual simplex
        self._highs.setOptionValue("simplex_strategy", int(strategy.kSimplexStrategyDual))
        self._highs.setOptionValue("dual_feasibility_tolerance", FEASIBILITY_TOL)
        first = model.n_clients + len(self._pairs)  # the first budget row
        for r in np.flatnonzero(model.budget_rhs != self._base.budget_rhs):
            self._highs.changeRowBounds(first + int(r), -kHighsInf, float(model.budget_rhs[r]))
        self._base = model
        iters = rounds = added = polishes = 0
        polished = False  # whether the held copy was re-run by primal simplex
        while True:
            # HiGHS stops at its limit even when that pivot ends the solve
            self._highs.setOptionValue("simplex_iteration_limit", cap - iters + 1)
            self._highs.run()
            iters += int(self._highs.getInfo().simplex_iteration_count)
            status = self._highs.getModelStatus()
            short = status == HighsModelStatus.kUnknown
            if not short:
                _raise_for_status(status, cap, self._highs.modelStatusToString(status))
                solution = self._highs.getSolution()
                v, u = _duals(model, solution.row_dual)
                pairs = _priced_in(model, self._pairs, v)
                if pairs.size:
                    self._build(model, np.concatenate([self._pairs, pairs]))
                    polished = False
                    rounds += 1
                    added += len(pairs)
                    continue
                cols = np.concatenate([self._pairs, np.arange(model.n_pairs, model.n_vars)])
                values = np.zeros(model.n_vars)
                values[cols] = solution.col_value
                objective = float(model.c @ values)
                bound = _dual_bound(model, v, u)
                short = objective - bound > CERTIFICATE_TOL * max(1.0, abs(objective))
            if not short or polished:
                break
            # dual simplex can stop "optimal" with a reduced cost still
            # negative beyond its tolerance, as small as a coordinate offset,
            # and several reduced costs each within it can add up to more
            # than the certificate allows, or give up (kUnknown) on a carried
            # basis; a bare run after the switch takes no pivot, setting the
            # basis makes it re-run from there
            self._highs.setOptionValue("simplex_strategy", int(strategy.kSimplexStrategyPrimal))
            self._highs.setOptionValue("dual_feasibility_tolerance", POLISH_DUAL_TOL)
            self._highs.setBasis(self._highs.getBasis())
            polished = True
            polishes += 1
        _raise_for_status(status, cap, self._highs.modelStatusToString(status))  # a kUnknown the polish left
        if short:
            raise LpCertificateError(
                f"dual bound {bound!r} is {objective - bound:.2e} below the objective {objective!r}"
            )
        return values, bound, iters, rounds, added, polishes

    def solve(self, model: LpModel, pivot_cap: Optional[int] = None) -> FractionalSolution:
        if self._highs is not None and self._base.inst is not model.inst:
            self.close()
        # the budget vector's length tells the modes apart, except with one
        # group, where both modes are the same LP and share their solutions
        key = tuple(model.budget_rhs.tolist())
        if key in self._memo:
            self.stats["memo"] += 1
        else:
            cap = int(pivot_cap) if pivot_cap is not None else 50 * (model.n_rows + model.n_vars)
            try:
                if self._highs is None:
                    kind = "cold"
                    self._build(model, _start_pairs(model))
                elif self._base.n_budget_rows != model.n_budget_rows:
                    kind = "switch"
                    self._build(model, self._pairs)
                else:
                    kind = "warm"
                values, bound, iters, rounds, added, polishes = self._run(model, cap)
            except LpError:
                self.close()  # the next solve starts cold
                raise
            self.stats[kind] += 1
            self.stats["simplex_iters"] += iters
            self.stats["pricing_rounds"] += rounds
            self.stats["priced_pairs"] += added
            self.stats["polished"] += polishes
            self._memo[key] = (values, _fractional(model, values, bound))
        values, frac = self._memo[key]
        _verify_residuals(model, values)
        return frac


def _fractional(model: LpModel, values: np.ndarray, bound: float) -> FractionalSolution:
    n_pairs = model.n_pairs
    return FractionalSolution(
        pair_fac=model.pair_fac,
        pair_cli=model.pair_cli,
        x_values=values[:n_pairs],
        y=values[n_pairs : n_pairs + model.n_facilities],
        z=values[n_pairs + model.n_facilities :],
        objective_value=float(model.c @ values),
        dual_bound=bound,
    )


def solve_lp(
    model: LpModel, pivot_cap: Optional[int] = None, chain: Optional[LpChain] = None
) -> FractionalSolution:
    """Solve to optimality; deterministic for a fixed model.

    With ``chain`` the solve is one step of that chain (warm when its last
    solve of this fairness mode was of the same instance object); without,
    it is a chain of one cold solve.  Raises InfeasibleError /
    UnboundedError / IterationLimitError on the corresponding solver
    statuses, the last when more than ``pivot_cap`` simplex iterations are
    needed over all pricing rounds.  The returned point is checked against
    every row of the model within 1e-7 by a residual pass independent of
    the solver's own bookkeeping, and its objective against its dual bound
    (LpCertificateError when they differ by more than ``CERTIFICATE_TOL``).
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
    """Dump the model in free-format MPS for cross-checking with external
    solvers, every number written by ``repr`` so it reads back exactly.
    Rows are named R%07d by row id and columns C%07d by variable id, in
    ``LpModel``'s layout: the assignment pairs (client-major, as in
    ``pair_fac``/``pair_cli``), then one opening column per facility, then
    one outlier column per client; the coverage rows (one per client), then
    the capacity rows (one per pair), then the budget rows."""
    sense_tag = {"G": " G", "L": " L"}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"NAME          {name}\n")
        fh.write("ROWS\n")
        fh.write(" N  COST\n")
        for r in range(model.n_rows):
            fh.write(f"{sense_tag[str(model.senses[r])]}  R{r:07d}\n")
        fh.write("COLUMNS\n")
        indptr, indices, data = _held_matrix(model, np.arange(model.n_pairs))
        for v in range(model.n_vars):
            entries = []
            if model.c[v] != 0.0:
                entries.append(("COST", model.c[v]))
            start, end = indptr[v], indptr[v + 1]
            for r, val in zip(indices[start:end], data[start:end]):
                entries.append((f"R{r:07d}", val))
            col = f"C{v:07d}"
            for k in range(0, len(entries), 2):
                chunk = entries[k : k + 2]
                line = f"    {col:<8}"
                for row_name, val in chunk:
                    line += f"  {row_name:<8}  {float(val)!r}"
                fh.write(line + "\n")
        fh.write("RHS\n")
        for r in range(model.n_rows):
            if model.rhs[r] != 0.0:
                fh.write(f"    RHS       R{r:07d}  {float(model.rhs[r])!r}\n")
        fh.write("BOUNDS\n")
        for v in range(model.n_vars):
            fh.write(f" UP BND       C{v:07d}  1\n")
        fh.write("ENDATA\n")
