"""Dense primal simplex for equality-form LPs min c.x, A x = b, x >= 0.

This module is the hull LP's solver and nothing else.  Built for the
hypercube-vertex convex-combination LPs in this package: few rows
(coordinate marginals plus a convexity row), up to 2^16 columns.  Enters on
the most negative reduced cost (Dantzig) and falls back to Bland's
anti-cycling rule after a run of degenerate pivots.  Checks on cube values
(basic values, pivot entries) use 1e-9 and checks on costs (reduced costs,
dual slack, duality gap) 1e-9 * max|c|, so scaling c changes no decision.
The ratio test's one absolute window is 1e-12: ratios that close are tied,
and the tie goes to the smallest basic variable.
The caller supplies the start tableau B^-1 [A | b].  Each pivot is a
row-normalized outer-product update in numpy; only the ratio test over the few
rows runs as a Python loop.  Every optimum is checked primal feasible and
certified by weak duality from the original data before it is returned.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolationError

TOLERANCE = 1e-9
# Degenerate pivots in a row (min ratio <= tol) after which the pivot loop
# enters by Bland's rule until it ends; Bland's rule cannot cycle.
_DEGENERATE_RUN = 50

# There is no JIT; kept because bench/run.py records it as ``simplex_jit``.
HAVE_NUMBA = False


def _pivot_loop(tab, basis, tol, max_iter):
    """Run simplex pivots on an extended tableau in place.

    tab is (m+1, ncols+1): rows 0..m-1 the constraint rows (identity on the
    basis columns), row m the reduced costs, last column the rhs.  Enters on
    the most negative reduced cost (Dantzig, lowest index on ties) until
    _DEGENERATE_RUN pivots in a row leave the basic solution in place, then on
    the lowest improving index (Bland) until the loop ends.  The leaving row
    has the smallest ratio; ratios within an absolute 1e-12 of each other are
    tied, and ties go to the smallest basic variable.  Returns the
    iteration count on optimality, -1 on the iteration cap, -2 if no pivot row
    exists (unbounded; impossible for these bounded LPs).
    """
    m = tab.shape[0] - 1
    ncols = tab.shape[1] - 1
    costs = tab[m, :ncols]
    rhs_col = tab[:m, ncols]
    run_limit = _DEGENERATE_RUN
    run = 0
    for it in range(max_iter):
        if run < run_limit:
            enter = costs.argmin()  # Dantzig: most negative reduced cost
            if costs[enter] >= -tol:
                return it
        else:
            improving = costs < -tol
            enter = improving.argmax()  # Bland: smallest improving index
            if not improving[enter]:
                return it
        leave = -1
        best = 0.0
        best_var = 0
        for i, (d, rhs) in enumerate(zip(tab[:m, enter].tolist(), rhs_col.tolist())):
            if d > tol:
                r = rhs / d
                if leave == -1 or r < best - 1e-12 or (
                    abs(r - best) <= 1e-12 and basis[i] < best_var
                ):
                    leave = i
                    best = r
                    best_var = basis[i]
        if leave == -1:
            return -2
        if run < run_limit:
            run = run + 1 if best <= tol else 0
        pivot_row = tab[leave]
        pivot_row /= pivot_row[enter]
        f = tab[:, enter].copy()
        f[leave] = 0.0
        tab -= np.multiply.outer(f, pivot_row)
        basis[leave] = enter
    return -1


def _certify(a_mat, b_vec, c_vec, basis, x_basic, value) -> None:
    """Prove value = min c.x over A x = b, x >= 0 by weak duality, or raise.

    Checks that the basic solution x_basic is >= -1e-9, then solves
    B^T pi = c_B from the original a_mat, not from the pivoted tableau, and
    checks that pi prices every column at >= -tol (one matvec) and that pi.b
    equals value within tol, with tol = 1e-9 * max|c|; with the basic
    solution feasible, no x does better than value - tol.  Raises
    InvariantViolationError if a check fails.
    """
    low = float(x_basic.min())
    if not low >= -TOLERANCE:
        raise InvariantViolationError(
            f"simplex basic solution is not primal feasible (smallest basic value "
            f"{low:.3g}, tolerance {TOLERANCE:.3g})"
        )
    try:
        pi = np.linalg.solve(a_mat[:, basis].T, c_vec[basis])
    except np.linalg.LinAlgError as exc:
        raise InvariantViolationError(f"singular final basis: {exc}") from None
    slack = float((c_vec - pi @ a_mat).min())
    gap = abs(float(pi @ b_vec) - value)
    tol = TOLERANCE * float(np.abs(c_vec).max())
    if not (slack >= -tol and gap <= tol):
        raise InvariantViolationError(
            f"simplex optimum fails its dual certificate (dual slack {slack:.3g}, "
            f"duality gap {gap:.3g}, tolerance {tol:.3g})"
        )


def solve_min(
    a_mat: np.ndarray,
    b_vec: np.ndarray,
    c_vec: np.ndarray,
    basis: np.ndarray,
    reduced: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Minimize c.x subject to A x = b, x >= 0, from a given basic feasible start.

    basis lists the column indices of a feasible basis (nonsingular, basic
    solution >= 0) and reduced is its (m, ncols+1) tableau B^-1 [A | b]; it
    is read, never written, so LPs that share A, b and the start (min c.x
    and min -c.x) share it.  Returns (optimal objective value, optimal
    solution); the solution and value have passed _certify.
    """
    m, ncols = a_mat.shape
    basis = np.array(basis, dtype=np.int64)  # private copy; the pivot loop mutates it
    tab = np.empty((m + 1, ncols + 1))
    tab[:m] = reduced
    cb = c_vec[basis]
    tab[m, :ncols] = c_vec - cb @ reduced[:, :ncols]
    tab[m, ncols] = -float(cb @ reduced[:, ncols])
    tab[m] /= float(np.abs(c_vec).max()) or 1.0  # reduced costs in units of max|c|
    max_iter = 50 * (ncols + m) + 1000
    status = _pivot_loop(tab, basis, TOLERANCE, max_iter)
    if status == -1:
        raise InvariantViolationError("simplex iteration cap reached")
    if status == -2:
        raise InvariantViolationError("simplex reported an unbounded direction on a bounded LP")
    # Recompute the objective from the final basic solution to shed pivot drift.
    x_basic = tab[:m, ncols]
    value = float(c_vec[basis] @ x_basic)
    _certify(a_mat, b_vec, c_vec, basis, x_basic, value)
    solution = np.zeros(ncols)
    solution[basis] = x_basic
    return value, solution
