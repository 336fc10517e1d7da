"""Output checks, run on every cell outside the timed span.

A cell that fails any check counts as failed; it is never dropped.
"""

from __future__ import annotations

import hashlib
import math

from fairfl.instance import FACILITY_LOCATION, K_MEDIAN, solution_cost

LP_REL_TOL = 1e-9     # lp_obj against its recorded reference and across percentages
COST_REL_TOL = 1e-9   # reported cost against the independent recomputation
LP_BOUND_TOL = 1e-7   # gdf-f cost may not undercut lp_obj by more than this


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_cells(inst, records, solutions, problem: str, epsilon: float) -> dict[int, list[str]]:
    """Per-record failures, keyed by the record's position.

    ``solutions`` maps (algo, per-group budgets) to the IntegralSolution the
    cell returned; the reported cost must equal ``solution_cost`` on it.
    """
    objective = FACILITY_LOCATION if problem == "fl" else K_MEDIAN
    failures: dict[int, list[str]] = {}
    for pos, rec in enumerate(records):
        bad = []
        sol = solutions.get((rec.algo, tuple(rec.ell)))
        if sol is None:
            bad.append("no solution captured for this cell")
        else:
            recomputed = solution_cost(inst, sol, objective)
            if not _close(rec.cost, recomputed, COST_REL_TOL):
                bad.append(f"cost {rec.cost!r} != recomputed {recomputed!r}")
            if tuple(rec.ell_prime) != sol.outlier_counts():
                bad.append(f"ell_prime {rec.ell_prime} != solution's {sol.outlier_counts()}")
        if rec.algo == "gdf-f":
            if rec.unfair != 1.0:
                bad.append(f"gdf-f unfairness {rec.unfair!r} != 1.0")
            if rec.lp_obj is not None and sol is not None and rec.cost < rec.lp_obj - LP_BOUND_TOL:
                # lp_obj is the optimum over the pruned pairs only, so it bounds
                # a solution that assigns every client through an allowed pair;
                # GDF assigns over the full metric and may undercut it otherwise.
                outside = pruned_assignments(inst, sol)
                if outside == 0:
                    bad.append(f"gdf-f cost {rec.cost!r} below lp_obj {rec.lp_obj!r} "
                               "using allowed pairs only")
                else:
                    print(f"note: gdf-f pct={rec.pct:g} costs {rec.cost!r} < lp_obj {rec.lp_obj!r}; "
                          f"{outside} of its assignments use pruned pairs, which the LP excludes")
        if rec.algo == "lpr-f":
            for g, (cap, used) in enumerate(zip(rec.ell, rec.ell_prime)):
                limit = math.ceil((1.0 + 2.0 * epsilon) * cap - 1e-9)
                if used > limit:
                    bad.append(f"lpr-f group {g}: {used} outliers > ceil((1+2eps)*{cap}) = {limit}")
        if bad:
            failures[pos] = bad
    return failures


def check_lp_objectives(records, reference) -> dict[int, list[str]]:
    """Every facility-location sweep cell carries lp_obj, which per
    percentage equals ``reference`` (a list in percentage order, or None
    when no reference is recorded for this seed) and does not increase as
    the budgets grow."""
    failures: dict[int, list[str]] = {}
    by_pct: dict[float, tuple[int, float]] = {}
    for pos, rec in enumerate(records):
        if rec.lp_obj is None:
            failures.setdefault(pos, []).append("sweep cell without lp_obj")
        elif rec.pct not in by_pct:
            by_pct[rec.pct] = (pos, rec.lp_obj)
    pcts = sorted(by_pct)
    values = [by_pct[p][1] for p in pcts]
    for k in range(1, len(values)):
        if values[k] > values[k - 1] * (1.0 + LP_REL_TOL) + LP_REL_TOL:
            failures.setdefault(by_pct[pcts[k]][0], []).append(
                f"lp_obj {values[k]!r} at pct {pcts[k]:g} above {values[k - 1]!r} at a smaller budget"
            )
    if reference is not None:
        if len(reference) != len(values):
            failures.setdefault(0, []).append(
                f"{len(values)} lp_obj values against {len(reference)} recorded"
            )
        for p, ref in zip(pcts, reference):
            pos, value = by_pct[p]
            if not _close(value, ref, LP_REL_TOL):
                failures.setdefault(pos, []).append(f"lp_obj {value!r} != reference {ref!r}")
    return failures


def lp_values(records) -> list[float]:
    """One lp_obj per percentage, in ascending percentage order."""
    seen = {}
    for rec in records:
        if rec.lp_obj is not None:
            seen.setdefault(rec.pct, rec.lp_obj)
    return [seen[p] for p in sorted(seen)]


def csv_digest(path: str, skip_config=()) -> str:
    """Digest of a sweep CSV with the ``ms`` column removed, and without the
    embedded configuration lines of the keys in ``skip_config``."""
    digest = hashlib.sha256()
    ms_col = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                if line[1:].split("=", 1)[0].strip() not in skip_config:
                    digest.update(line.encode())
                continue
            cells = line.rstrip("\n").rstrip("\r").split(",")
            if ms_col is None:
                ms_col = cells.index("ms")
            del cells[ms_col]
            digest.update((",".join(cells) + "\n").encode())
    return digest.hexdigest()


def pruned_assignments(inst, sol) -> int:
    """Assignments of ``sol`` through pairs the pruned LP does not contain."""
    if inst.allowed_pairs is None:
        return 0
    return sum((i, j) not in inst.allowed_pairs for j, i in sol.assignment.items())
