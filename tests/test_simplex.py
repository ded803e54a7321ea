from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilingap import simplex
from bilingap.cuts import bit_matrix
from bilingap.envelopes import _staircase_start
from bilingap.errors import InvariantViolationError
from bilingap.simplex import _pivot_loop, solve_min


def test_bit_matrix_small():
    m = bit_matrix(2)
    assert m.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def _start_tableau(a, b, c, basis):
    """Extended tableau of min c.x, a x = b, x >= 0 at the given basis."""
    m, ncols = a.shape
    tab = np.zeros((m + 1, ncols + 1))
    bmat = a[:, basis]
    tab[:m, :ncols] = np.linalg.solve(bmat, a)
    tab[:m, ncols] = np.linalg.solve(bmat, b)
    tab[m, :ncols] = c - c[basis] @ tab[:m, :ncols]
    tab[m, ncols] = -c[basis] @ tab[:m, ncols]
    return tab


def _solve_with_basis(a, b, c, basis):
    a, b, c = (np.asarray(v, dtype=np.float64) for v in (a, b, c))
    basis = np.asarray(basis, dtype=np.int64)
    return solve_min(a, b, c, basis, _start_tableau(a, b, c, basis)[:-1])


def test_min_over_simplex_picks_cheapest_vertex():
    # min c.x st sum(x) = 1, x >= 0
    a = [[1.0, 1.0, 1.0]]
    b = [1.0]
    c = [3.0, -2.0, 5.0]
    val, sol = _solve_with_basis(a, b, c, [0])
    assert val == pytest.approx(-2.0, abs=1e-9)
    assert sol == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)


def test_two_constraints():
    # min x1+x2 st x1+2x2=2, x1-x2=0 (slackless); solution x1=x2=2/3
    a = [[1.0, 2.0], [1.0, -1.0]]
    b = [2.0, 0.0]
    c = [1.0, 1.0]
    # phase-free: basis {0,1} is already the unique solution
    val, sol = _solve_with_basis(a, b, c, [0, 1])
    assert val == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert sol == pytest.approx([2.0 / 3.0, 2.0 / 3.0], abs=1e-9)


def test_unbounded_detected():
    # min -x1 st x1 - x2 = 0: ray x1 = x2 -> infinity
    with pytest.raises(InvariantViolationError):
        _solve_with_basis([[1.0, -1.0]], [0.0], [-1.0, 0.0], [0])


def test_infeasible_basis_rejected():
    # basis column gives negative basic value
    with pytest.raises(InvariantViolationError):
        _solve_with_basis([[1.0, 1.0]], [-1.0], [1.0, 1.0], [0])


def test_certificate_rejects_a_drifted_value(monkeypatch):
    # Optimal basis, but the basic solution is scaled off A x = b: the duals
    # stay feasible, so only the duality-gap check can catch the value.
    real_loop = simplex._pivot_loop

    def drifted(tab, basis, tol, max_iter):
        status = real_loop(tab, basis, tol, max_iter)
        tab[:-1, -1] *= 1.001
        return status

    monkeypatch.setattr(simplex, "_pivot_loop", drifted)
    with pytest.raises(InvariantViolationError, match="dual slack 0, duality gap 0.002"):
        _solve_with_basis([[1.0, 1.0, 1.0]], [1.0], [3.0, -2.0, 5.0], [0])


def test_caller_basis_not_mutated():
    a = [[1.0, 1.0, 1.0]]
    b = [1.0]
    c = [3.0, -2.0, 5.0]
    basis = np.array([0], dtype=np.int64)
    _solve_with_basis(a, b, c, basis)
    assert basis.tolist() == [0]


@st.composite
def random_transport_lp(draw):
    """LP min c.x st A x = b with known-feasible x0 on the probability simplex."""
    rnd = np.random.default_rng(draw(st.integers(0, 10**6)))
    m = draw(st.integers(1, 4))
    ncols = draw(st.integers(m, 10))
    a = rnd.integers(-3, 4, size=(m, ncols)).astype(np.float64)
    a[0, :] = 1.0  # simplex row keeps the problem bounded
    x0 = rnd.dirichlet(np.ones(ncols))
    b = a @ x0
    c = rnd.integers(-5, 6, size=ncols).astype(np.float64)
    return a, b, c


@given(random_transport_lp())
@settings(max_examples=60, deadline=None)
def test_matches_scipy_on_random_feasible_lps(problem):
    from scipy.optimize import linprog

    a, b, c = problem
    ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
    if ref.status != 0:
        return  # numerically borderline instance; scipy gave up
    # Build a feasible starting basis via phase-1 style: use scipy's solution
    # support, padded to m linearly independent columns by greedy selection.
    m = a.shape[0]
    order = np.argsort(-ref.x)
    basis: list[int] = []
    for col in list(order) + list(range(a.shape[1])):
        trial = basis + [int(col)]
        if len(set(trial)) != len(trial):
            continue
        if np.linalg.matrix_rank(a[:, trial]) == len(trial):
            basis = trial
        if len(basis) == m:
            break
    if len(basis) < m:
        return  # rank-deficient row set; solver requires a full basis
    try:
        start = _start_tableau(a, b, c, basis)[:-1]
    except np.linalg.LinAlgError:
        return  # greedy basis is numerically singular
    if np.any(start[:, -1] < -simplex.TOLERANCE):
        return  # greedy basis is infeasible for the equality system
    val, sol = solve_min(a, b, c, np.array(basis, dtype=np.int64), start)
    assert val == pytest.approx(ref.fun, abs=1e-7)
    assert np.allclose(a @ sol, b, atol=1e-7)
    assert np.all(sol >= -1e-9)


def _elementwise_pivot_loop(tab, basis, tol, max_iter, degenerate_run):
    """Reference pivot loop, one tableau entry at a time.

    Dantzig entering until degenerate_run pivots in a row have a min ratio
    <= tol, then Bland entering to the end; degenerate_run = 0 is pure Bland.
    """
    m = tab.shape[0] - 1
    ncols = tab.shape[1] - 1
    run = 0
    for it in range(max_iter):
        enter = -1
        if run < degenerate_run:
            for j in range(ncols):  # Dantzig: most negative, first on ties
                if tab[m, j] < -tol and (enter == -1 or tab[m, j] < tab[m, enter]):
                    enter = j
        else:
            for j in range(ncols):
                if tab[m, j] < -tol:  # Bland: smallest improving index
                    enter = j
                    break
        if enter == -1:
            return it
        leave = -1
        best = 0.0
        best_var = 0
        for i in range(m):
            d = tab[i, enter]
            if d > tol:
                r = tab[i, ncols] / d
                if leave == -1 or r < best - 1e-12 or (
                    abs(r - best) <= 1e-12 and basis[i] < best_var
                ):
                    leave = i
                    best = r
                    best_var = basis[i]
        if leave == -1:
            return -2
        if run < degenerate_run:
            run = run + 1 if best <= tol else 0
        piv = tab[leave, enter]
        for j in range(ncols + 1):
            tab[leave, j] /= piv
        for i in range(m + 1):
            if i != leave:
                f = tab[i, enter]
                if f != 0.0:
                    for j in range(ncols + 1):
                        tab[i, j] -= f * tab[leave, j]
        basis[leave] = enter
    return -1


def _staircase_points(f):
    """20 seeded fractional points of dimension f: repeated coordinates, 0.5s and
    values within 1e-12 of 0 and 1 mixed into uniform draws."""
    rnd = np.random.default_rng(f)
    near = [0.5, 1e-13, 7e-13, 1.0 - 1e-13, 1.0 - 7e-13]
    points = []
    for k in range(20):
        xs = rnd.uniform(0.0, 1.0, size=f)
        picks = rnd.random(f) < 0.3
        xs[picks] = rnd.choice(near, size=int(picks.sum()))
        if k % 2:
            xs[rnd.integers(f)] = xs[rnd.integers(f)]
        if k % 5 == 0:
            xs[: f // 2] = xs[f - 1]
        points.append(xs)
    return points


@pytest.mark.parametrize("f", range(3, 13))
def test_staircase_start_is_the_closed_form_inverse(f):
    a = np.vstack([bit_matrix(f).T, np.ones(1 << f)])
    for xs in _staircase_points(f):
        b = np.append(xs, 1.0)
        basis, reduced = _staircase_start(a, b)
        order = sorted(range(f), key=lambda p: (-xs[p], p))
        assert basis.tolist() == np.cumsum([0] + [1 << p for p in order]).tolist()
        assert np.isin(reduced[:, :-1], (-1.0, 0.0, 1.0)).all()
        lu = np.linalg.solve(a[:, basis], np.column_stack([a, b]))
        assert np.abs(reduced - lu).max() <= 1e-12
        assert (reduced[:, -1] >= 0.0).all()


def test_pivot_loop_matches_elementwise_reference():
    a = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0]])
    b = np.array([1.0, 1.5])
    c = np.array([1.0, -1.0, 2.0, 0.5])
    basis = np.array([0, 3], dtype=np.int64)
    tab = _start_tableau(a, b, c, basis)
    tab2, basis2 = tab.copy(), basis.copy()
    it1 = _pivot_loop(tab, basis, 1e-9, 1000)
    it2 = _elementwise_pivot_loop(tab2, basis2, 1e-9, 1000, simplex._DEGENERATE_RUN)
    assert it1 == it2
    assert basis.tolist() == basis2.tolist()
    assert np.allclose(tab, tab2, atol=1e-12)


def _assert_vertex_lp_matches_reference(xs, run):
    # Hull-LP shape: coordinate marginals plus convexity over the 2^5 cube
    # vertices, from the staircase basis.  Half coordinates make it degenerate,
    # so the ratio-test tie rule decides pivots.
    xs = np.array(xs)
    a = np.vstack([bit_matrix(5).T, np.ones(32)])
    c = np.random.default_rng(7).integers(-9, 10, size=32).astype(np.float64)
    basis, _ = _staircase_start(a, np.append(xs, 1.0))
    tab = _start_tableau(a, np.append(xs, 1.0), c, basis)
    tab2, basis2 = tab.copy(), basis.copy()
    it1 = _pivot_loop(tab, basis, 1e-9, 1000)
    it2 = _elementwise_pivot_loop(tab2, basis2, 1e-9, 1000, run)
    assert it1 == it2 > 1
    assert basis.tolist() == basis2.tolist()
    assert np.array_equal(tab, tab2)


VERTEX_POINTS = [[0.5, 0.5, 0.5, 0.5, 0.5], [0.3, 0.5, 0.9, 0.1, 0.5]]


@pytest.mark.parametrize("xs", VERTEX_POINTS)
def test_pivot_loop_matches_elementwise_reference_on_vertex_lp(xs):
    _assert_vertex_lp_matches_reference(xs, simplex._DEGENERATE_RUN)


@pytest.mark.parametrize("run", [0, 1, 2])
@pytest.mark.parametrize("xs", VERTEX_POINTS)
def test_bland_fallback_matches_elementwise_reference(monkeypatch, xs, run):
    # The fallback never fires on the seeded hull LPs, so force it: run = 0 is
    # pure Bland from the start, 1 and 2 switch after the first degenerate
    # pivots (at the all-half point both take paths unlike pure Dantzig's).
    monkeypatch.setattr(simplex, "_DEGENERATE_RUN", run)
    _assert_vertex_lp_matches_reference(xs, run)
