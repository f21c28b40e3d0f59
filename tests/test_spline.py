"""Spline fitting tests.

The production fit uses a tridiagonal second-derivative solve and stores
each cell in the local basis c0 + c1*u + c2*u^2 + c3*u^3, u the offset from
the cell's knot. The oracles here are an independent dense solve of the
full piecewise system (interpolation at both cell ends, first/second
derivative continuity at interior knots, zero curvature at the boundary
knots) and the natural spline worked out in exact rational arithmetic
(fractions). Derivatives of a fitted spline or surface are taken by
numpy.polynomial on its stored cell coefficients.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from xfertune import (Spline, SplineError, find_critical_points,
                      fit_bicubic_surface, fit_natural_spline)


def basis_row(u: float, d: int) -> np.ndarray:
    """The d-th derivative of the local basis row [1, u, u^2, u^3]."""
    if d == 0:
        return np.array([1.0, u, u * u, u ** 3])
    if d == 1:
        return np.array([0.0, 1.0, 2.0 * u, 3.0 * u * u])
    return np.array([0.0, 0.0, 2.0, 6.0 * u])


def _cell(knots, t):
    return int(np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 1))


def spline_derivative(s, t, order: int):
    """The order-th derivative of a fitted spline at t (a float or an
    array), by numpy.polynomial on the coefficients of the cell holding t."""
    (knots,) = s.knots
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    cells = [_cell(knots, v) for v in ts]
    out = np.array([P.polyval(v - knots[i], P.polyder(s.coeffs[i], order))
                    for v, i in zip(ts, cells)])
    return float(out[0]) if np.ndim(t) == 0 else out


def cell_derivative(s, i: int, t: float, order: int) -> float:
    """The order-th derivative of cell i's cubic (knot i's cell) at t,
    inside that cell or not."""
    (knots,) = s.knots
    return float(basis_row(t - knots[i], order) @ s.coeffs[i])


def surface_derivative(f, x: float, y: float, dx: int, dy: int) -> float:
    """d^(dx+dy) f / dx^dx dy^dy at (x, y), by numpy.polynomial on the
    coefficient block of the cell holding the point."""
    xs, ys = f.knots
    i, j = _cell(xs, x), _cell(ys, y)
    return float(P.polyval2d(x - xs[i], y - ys[j],
                             P.polyder(P.polyder(f.coeffs[i, j], dx, axis=0), dy, axis=1)))


def surface_gradient(f, x: float, y: float) -> tuple[float, float]:
    return surface_derivative(f, x, y, 1, 0), surface_derivative(f, x, y, 0, 1)


def surface_hessian(f, x: float, y: float) -> tuple[float, float, float]:
    return (surface_derivative(f, x, y, 2, 0), surface_derivative(f, x, y, 1, 1),
            surface_derivative(f, x, y, 0, 2))


def dense_natural_coeffs(x, y) -> np.ndarray:
    """Local-basis coefficients of each of the n-1 cells between the knots,
    from one dense linear solve."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.diff(x)
    cells = len(x) - 1
    size = 4 * cells
    a = np.zeros((size, size))
    rhs = np.zeros(size)
    row = 0
    for i in range(cells):
        a[row, 4 * i:4 * i + 4] = basis_row(0.0, 0)
        rhs[row] = y[i]
        row += 1
        a[row, 4 * i:4 * i + 4] = basis_row(h[i], 0)
        rhs[row] = y[i + 1]
        row += 1
    for i in range(cells - 1):
        for d in (1, 2):
            a[row, 4 * i:4 * i + 4] = basis_row(h[i], d)
            a[row, 4 * (i + 1):4 * (i + 1) + 4] = -basis_row(0.0, d)
            row += 1
    a[row, 0:4] = basis_row(0.0, 2)
    row += 1
    a[row, 4 * (cells - 1):] = basis_row(h[-1], 2)
    row += 1
    assert row == size
    return np.linalg.solve(a, rhs).reshape(cells, 4)


def with_last_knot_cell(cells: np.ndarray, x) -> np.ndarray:
    """The n-1 cells between the knots plus the last knot's cell: the last
    cubic re-expanded about the last knot."""
    c, h = cells[-1], x[-1] - x[-2]
    last = [basis_row(h, 0) @ c, basis_row(h, 1) @ c, basis_row(h, 2) @ c / 2.0, c[3]]
    return np.vstack([cells, last])


def exact_natural_spline(x, y):
    """The natural cubic spline through (x, y) in exact rational arithmetic,
    as a function of t that extends the boundary cubics outside the knots."""
    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    n = len(x)
    h = [b - a for a, b in zip(x, x[1:])]
    slope = [(b - a) / g for a, b, g in zip(y, y[1:], h)]
    # interior rows h[i-1]*M[i-1] + 2(h[i-1]+h[i])*M[i] + h[i]*M[i+1] = rhs,
    # eliminated downwards and substituted back (M[0] = M[-1] = 0)
    m = [Fraction(0)] * n
    cp, dp = [Fraction(0)] * n, [Fraction(0)] * n
    for i in range(1, n - 1):
        den = 2 * (h[i - 1] + h[i]) - h[i - 1] * cp[i - 1]
        cp[i] = h[i] / den if i < n - 2 else Fraction(0)
        dp[i] = (6 * (slope[i] - slope[i - 1]) - h[i - 1] * dp[i - 1]) / den
    for i in range(n - 2, 0, -1):
        m[i] = dp[i] - cp[i] * m[i + 1]

    def at(t) -> Fraction:
        t = Fraction(t)
        i = max(0, min(n - 2, sum(1 for v in x if v <= t) - 1))
        u = t - x[i]
        c1 = slope[i] - h[i] * (2 * m[i] + m[i + 1]) / 6
        c3 = (m[i + 1] - m[i]) / (6 * h[i])
        return y[i] + u * (c1 + u * (m[i] / 2 + u * c3))
    return at


def exact_value(knots, grid, point) -> Fraction:
    """The tensor-product natural spline through grid on the mesh of the
    knot axes at point, exactly: the spline along the first axis through
    the exact values of the lower-dimensional splines of its grid rows."""
    if len(knots) == 1:
        return exact_natural_spline(knots[0], grid)(point[0])
    rows = [exact_value(knots[1:], g, point[1:]) for g in grid]
    return exact_natural_spline(knots[0], rows)(point[0])


def random_knots(rng, n: int, min_gap: float = 0.2) -> np.ndarray:
    start = rng.uniform(-1.0, 1.0)
    gaps = rng.uniform(min_gap, 1.0, size=n - 1)
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


def test_hand_worked_three_knot_spline():
    s = fit_natural_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    # first cell: s(t) = 1.5 t - 0.5 t^3; then the second cubic about t = 1,
    # and the same cubic about t = 2 for the last knot's cell
    assert np.allclose(s.coeffs, [[0.0, 1.5, 0.0, -0.5], [1.0, 0.0, -1.5, 0.5],
                                  [0.0, -1.5, 0.0, 0.5]], atol=1e-12)
    assert s(0.5) == pytest.approx(0.6875, abs=1e-12)
    assert spline_derivative(s, 1.0, 2) == pytest.approx(-3.0, abs=1e-12)
    assert spline_derivative(s, 0.0, 1) == pytest.approx(1.5, abs=1e-12)


def test_matches_dense_solve_on_random_knots():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        x = random_knots(rng, n)
        y = rng.standard_normal(n)
        got = fit_natural_spline(x, y).coeffs
        want = with_last_knot_cell(dense_natural_coeffs(x, y), x)
        assert np.max(np.abs(got - want)) < 1e-8


def test_interpolates_and_has_natural_ends():
    rng = np.random.default_rng(1)
    x = random_knots(rng, 8)
    y = rng.standard_normal(8)
    s = fit_natural_spline(x, y)
    assert_same_bits(s(x), y)
    assert abs(spline_derivative(s, x[0], 2)) < 1e-8
    assert abs(spline_derivative(s, x[-1], 2)) < 1e-8


def test_continuity_at_interior_knots():
    rng = np.random.default_rng(2)
    x = random_knots(rng, 9)
    y = rng.standard_normal(9)
    s = fit_natural_spline(x, y)
    scale = max(1.0, np.max(np.abs(y)))
    for i in range(1, len(x)):
        t = x[i]
        for d, tol in ((0, 1e-9), (1, 1e-9), (2, 1e-8)):
            left = cell_derivative(s, i - 1, t, d)
            right = cell_derivative(s, i, t, d)
            assert abs(left - right) < tol * scale
    # the last knot's cell continues the last cubic
    assert s.coeffs[-1][3] == s.coeffs[-2][3]


def test_linear_data_is_reproduced_exactly():
    x = np.array([0.0, 0.7, 1.1, 2.5, 4.0])
    y = 3.0 - 2.0 * x
    s = fit_natural_spline(x, y)
    assert np.allclose(s.coeffs[:, 2:], 0.0, atol=1e-12)
    t = np.linspace(0.0, 4.0, 200)
    assert np.allclose(s(t), 3.0 - 2.0 * t, atol=1e-12)


def test_two_knots_give_the_straight_line():
    s = fit_natural_spline([1.0, 3.0], [5.0, 1.0])
    t = np.linspace(1.0, 3.0, 50)
    assert np.allclose(s(t), 5.0 - 2.0 * (t - 1.0), atol=1e-12)
    assert np.allclose(spline_derivative(s, t, 2), 0.0, atol=1e-12)


def test_refit_on_refined_knots_reproduces_the_spline():
    # the spline is itself a natural cubic interpolant of its samples on
    # any refinement of its knot set, so the refit must agree everywhere
    rng = np.random.default_rng(3)
    x = random_knots(rng, 6)
    y = rng.standard_normal(6)
    s = fit_natural_spline(x, y)
    refined = np.sort(np.concatenate([x, (x[:-1] + x[1:]) / 2.0]))
    s2 = fit_natural_spline(refined, s(refined))
    t = np.linspace(x[0], x[-1], 500)
    scale = max(1.0, np.max(np.abs(y)))
    assert np.max(np.abs(s2(t) - s(t))) < 1e-9 * scale


def test_vector_evaluation_matches_scalar():
    s = fit_natural_spline([0.0, 1.0, 2.0, 3.0], [1.0, -1.0, 2.0, 0.0])
    t = np.linspace(0.0, 3.0, 17)
    vec = s(t)
    assert vec.shape == t.shape
    assert np.allclose(vec, [s(float(v)) for v in t], atol=0)


def test_fit_rejects_bad_input():
    with pytest.raises(SplineError):
        fit_natural_spline([1.0], [2.0])
    with pytest.raises(SplineError):
        fit_natural_spline([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(SplineError):
        fit_natural_spline([1.0, 0.0], [1.0, 2.0])
    with pytest.raises(SplineError):
        fit_natural_spline([0.0, 1.0], [1.0])
    with pytest.raises(SplineError):
        fit_natural_spline([0.0, 1.0], [1.0, np.nan])


# -- surfaces -----------------------------------------------------------------


def random_surface(rng, nx: int, ny: int):
    xs = random_knots(rng, nx, min_gap=0.5)
    ys = random_knots(rng, ny, min_gap=0.5)
    grid = rng.standard_normal((nx, ny))
    return xs, ys, grid, fit_bicubic_surface(xs, ys, grid)


def nested_eval(xs, ys, grid, x: float, y: float, x_first: bool) -> float:
    """Per-point construction from 1-D fits only, in either axis order."""
    if x_first:
        col = np.array([fit_natural_spline(xs, grid[:, j])(x) for j in range(len(ys))])
        return fit_natural_spline(ys, col)(y)
    row = np.array([fit_natural_spline(ys, grid[i, :])(y) for i in range(len(xs))])
    return fit_natural_spline(xs, row)(x)


def test_surface_interpolates_grid_values():
    rng = np.random.default_rng(5)
    xs, ys, grid, f = random_surface(rng, 5, 4)
    for i in range(len(xs)):
        for j in range(len(ys)):
            assert f(xs[i], ys[j]) == grid[i, j]


def test_surface_matches_nested_one_dimensional_fits():
    rng = np.random.default_rng(6)
    xs, ys, grid, f = random_surface(rng, 6, 5)
    scale = max(1.0, np.max(np.abs(grid)))
    for _ in range(40):
        x = rng.uniform(xs[0], xs[-1])
        y = rng.uniform(ys[0], ys[-1])
        got = f(x, y)
        assert abs(got - nested_eval(xs, ys, grid, x, y, True)) < 1e-9 * scale
        assert abs(got - nested_eval(xs, ys, grid, x, y, False)) < 1e-9 * scale


def test_two_by_two_grid_is_bilinear():
    xs = np.array([0.0, 2.0])
    ys = np.array([1.0, 3.0])
    grid = np.array([[1.0, 2.0], [4.0, 8.0]])
    f = fit_bicubic_surface(xs, ys, grid)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, y = rng.uniform(0, 2), rng.uniform(1, 3)
        u, v = x / 2.0, (y - 1.0) / 2.0
        want = (grid[0, 0] * (1 - u) * (1 - v) + grid[1, 0] * u * (1 - v)
                + grid[0, 1] * (1 - u) * v + grid[1, 1] * u * v)
        assert f(x, y) == pytest.approx(want, abs=1e-12)


def sample_points_with_margin(rng, xs, ys, count: int, margin: float):
    """Random points at least margin away from every knot line, so finite
    difference stencils never straddle a curvature jump."""
    pts = []
    while len(pts) < count:
        i = int(rng.integers(0, len(xs) - 1))
        j = int(rng.integers(0, len(ys) - 1))
        x = rng.uniform(xs[i] + margin, xs[i + 1] - margin)
        y = rng.uniform(ys[j] + margin, ys[j + 1] - margin)
        pts.append((x, y))
    return pts


def test_surface_is_natural_normal_to_edges():
    rng = np.random.default_rng(10)
    xs, ys, grid, f = random_surface(rng, 5, 5)
    for y in np.linspace(ys[0], ys[-1], 9):
        assert abs(surface_hessian(f, xs[0], y)[0]) < 1e-8
        assert abs(surface_hessian(f, xs[-1], y)[0]) < 1e-8
    for x in np.linspace(xs[0], xs[-1], 9):
        assert abs(surface_hessian(f, x, ys[0])[2]) < 1e-8
        assert abs(surface_hessian(f, x, ys[-1])[2]) < 1e-8


def block_eval(block: np.ndarray, u: float, v: float, dx: int, dy: int) -> float:
    return float(basis_row(u, dx) @ block @ basis_row(v, dy))


def test_surface_continuity_across_cell_boundaries():
    rng = np.random.default_rng(11)
    xs, ys, grid, f = random_surface(rng, 5, 4)
    scale = max(1.0, np.max(np.abs(grid)))
    probes = np.linspace(ys[0] + 0.01, ys[-1] - 0.01, 7)
    for i in range(1, len(xs)):
        for y in probes:
            j = _cell(ys, y)
            for dx, dy, tol in ((0, 0, 1e-9), (1, 0, 1e-9), (2, 0, 1e-8),
                                (0, 1, 1e-9), (1, 1, 1e-8)):
                left = block_eval(f.coeffs[i - 1, j], xs[i] - xs[i - 1], y - ys[j], dx, dy)
                right = block_eval(f.coeffs[i, j], 0.0, y - ys[j], dx, dy)
                assert abs(left - right) < tol * scale


def test_surface_rejects_bad_input():
    with pytest.raises(SplineError):
        fit_bicubic_surface([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)))
    with pytest.raises(SplineError):
        fit_bicubic_surface([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(SplineError):
        fit_bicubic_surface([0.0, 1.0], [0.0, 1.0], np.array([[0.0, 1.0], [np.inf, 2.0]]))


# -- batched solves against the per-line loop ---------------------------------
#
# A fit solves every line of values along the first axis, then every line of
# the resulting (cell, power) coefficients along the second, in one batched
# call each. The loop_* functions are the 1-D solver and a loop over the
# lines, kept as the reference: each coefficient must come out bit for bit
# the same.


def loop_thomas(lower, diag, upper, rhs):
    n = len(diag)
    c = np.zeros(n)
    d = np.zeros(n)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / denom if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / denom
    out = np.zeros(n)
    out[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        out[i] = d[i] - c[i] * out[i + 1]
    return out


def loop_natural_coeffs(x, y):
    """Local-basis coefficients of one line of values: one cell per knot,
    the last continuing the last cubic."""
    n = len(x)
    m = np.zeros(n)
    h = np.diff(x)
    slope = np.diff(y) / h
    if n > 2:
        rhs = 6.0 * (slope[1:] - slope[:-1])
        diag = 2.0 * (h[:-1] + h[1:])
        lower = np.concatenate(([0.0], h[1:-1]))
        upper = np.concatenate((h[1:-1], [0.0]))
        m[1:-1] = loop_thomas(lower, diag, upper, rhs)
    c1 = slope - h * (2.0 * m[:-1] + m[1:]) / 6.0
    end = slope[-1] + h[-1] * (m[-2] + 2.0 * m[-1]) / 6.0
    c3 = (m[1:] - m[:-1]) / (6.0 * h)
    return np.column_stack([y, np.append(c1, end), m / 2.0, np.append(c3, c3[-1])])


def loop_surface_coeffs(xs, ys, grid):
    nx, ny = grid.shape
    xcoef = np.zeros((nx, ny, 4))
    for j in range(ny):
        xcoef[:, j] = loop_natural_coeffs(xs, grid[:, j])
    coeffs = np.zeros((nx, ny, 4, 4))
    for i in range(nx):
        for a in range(4):
            coeffs[i, :, a] = loop_natural_coeffs(ys, xcoef[i, :, a])
    return coeffs


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    # tobytes also tells -0.0 from 0.0, which the JSON artifacts print apart
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_batched_fits_equal_the_per_row_loop_bit_for_bit(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(150):
        nx, ny = rng.integers(2, 9, size=2)   # 2-knot axes included
        xs = random_knots(rng, nx, min_gap=0.01) * 10.0 ** rng.uniform(-2, 4)
        ys = random_knots(rng, ny, min_gap=0.01) * 10.0 ** rng.uniform(-2, 4)
        grid = rng.standard_normal((nx, ny)) * 10.0 ** rng.uniform(-3, 12)
        assert_same_bits(fit_bicubic_surface(xs, ys, grid).coeffs,
                         loop_surface_coeffs(xs, ys, grid))
        assert_same_bits(fit_natural_spline(xs, grid[:, 0]).coeffs,
                         loop_natural_coeffs(xs, grid[:, 0]))


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 5), (5, 2), (4, 4)])
def test_batched_fit_raises_as_the_per_row_loop_on_overflow(nx, ny):
    # values of +-1.7e308 at neighbouring knots overflow a cell slope, in
    # the first pass (alternating along x) or only in the second
    # (alternating along y); the per-line loop stores infinite and NaN
    # coefficients there, the fit refuses them
    rng = np.random.default_rng(nx * 10 + ny)
    xs = 1e3 + np.arange(nx, dtype=float)
    ys = 1e3 + np.cumsum(rng.uniform(0.5, 1.0, ny))
    sign = (-1.0) ** np.arange(max(nx, ny))
    for grid in (np.outer(sign[:nx], np.ones(ny)) * 1.7e308,
                 np.outer(np.ones(nx), sign[:ny]) * 1.7e308):
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(loop_surface_coeffs(xs, ys, grid)))
        with pytest.raises(SplineError, match="^surface coefficients overflow$"):
            fit_bicubic_surface(xs, ys, grid)
        with pytest.raises(SplineError, match="^surface coefficients overflow$"):
            fit_bicubic_surface(xs, ys, np.stack([np.ones((nx, ny)), grid]))


def test_spline_refuses_coefficients_that_overflow():
    with np.errstate(all="ignore"):
        assert not np.all(np.isfinite(
            loop_natural_coeffs(np.array([0.0, 1.0, 2.0]),
                                np.array([1.7e308, -1.7e308, 1.7e308]))))
    with pytest.raises(SplineError, match="^spline coefficients overflow$"):
        fit_natural_spline([0.0, 1.0, 2.0], [1.7e308, -1.7e308, 1.7e308])
    with pytest.raises(SplineError, match="^spline coefficients overflow$"):
        fit_natural_spline([0.0, 1.0, 2.0], [[1.0, 2.0, 3.0], [1.7e308, -1.7e308, 1.7e308]])
    # knots whose cubes overflow fit: no knot is raised to a power
    s = fit_natural_spline([0.0, 1e103, 2e103], [1.0, 2.0, 3.0])
    assert_same_bits(s(s.knots[0]), np.array([1.0, 2.0, 3.0]))
    assert s(1.5e103) == pytest.approx(2.5, rel=1e-15)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_fits_equal_single_fits_bit_for_bit(seed):
    # the energy and throughput grids of a group share knots and are fitted
    # as one stack: each result must be the fit of its grid alone
    rng = np.random.default_rng(200 + seed)
    for _ in range(60):
        nx, ny = rng.integers(2, 9, size=2)
        xs = random_knots(rng, nx, min_gap=0.01) * 10.0 ** rng.uniform(-2, 4)
        ys = random_knots(rng, ny, min_gap=0.01) * 10.0 ** rng.uniform(-2, 4)
        grids = rng.standard_normal((2, nx, ny)) * 10.0 ** rng.uniform(-3, 12, size=(2, 1, 1))
        for fit, knots, stack in ((fit_bicubic_surface, (xs, ys), grids),
                                  (fit_natural_spline, (xs,), grids[:, :, 0])):
            stacked = fit(*knots, stack)
            assert isinstance(stacked, Spline) and stacked.coeffs.shape[0] == 2
            for g, grid in enumerate(stack):
                single = fit(*knots, grid)
                assert_same_bits(stacked.coeffs[g], single.coeffs)
                assert_same_bits(stacked.grid[g], single.grid)


def test_stacked_fits_reject_mismatched_shapes():
    xs, ys = [0.0, 1.0, 2.0], [0.0, 1.0]
    with pytest.raises(SplineError, match="grid must have shape"):
        fit_bicubic_surface(xs, ys, np.zeros((2, 2, 3)))
    with pytest.raises(SplineError, match="grid must have shape"):
        fit_bicubic_surface(xs, ys, np.zeros((1, 2, 3, 2)))
    with pytest.raises(SplineError, match="same length"):
        fit_natural_spline(xs, np.zeros((2, 2)))
    with pytest.raises(SplineError, match="same length"):
        fit_natural_spline(xs, np.zeros((1, 2, 3)))


# -- a stacked fit evaluates as its rows fitted alone -------------------------
#
# A stack of value arrays on shared knots is one spline whose call looks up
# each point's cell once for every row. Row r must give the bits a fit of
# row r alone gives, at any point: on the knots, between them, beyond them,
# as a scalar, and on point arrays that broadcast. loop_call is the
# reference for those bits: one point at a time, the same nested Horner
# scheme on the coefficients of the point's cell.


def loop_call(model, *points):
    """model (a single spline) at the broadcast points, one point at a time,
    shaped as the points."""
    pts = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in points))
    out = np.empty(pts[0].shape)
    for idx in np.ndindex(out.shape):
        t = [p[idx] for p in pts]
        cells = [_cell(k, v) for k, v in zip(model.knots, t)]
        c = model.coeffs[tuple(cells)]
        for d in reversed(range(len(t))):
            u = t[d] - model.knots[d][cells[d]]
            c = c[..., 0] + u * (c[..., 1] + u * (c[..., 2] + u * c[..., 3]))
        out[idx] = c
    return out


@st.composite
def stacked_problems(draw):
    """Knot axes, a (k, nx, ny) stack of grids on them, and probe coordinates
    along each axis: every knot, points between knots, points beyond both
    ends."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    axes = []
    for _ in range(2):
        n = draw(st.integers(2, 8))
        knots = np.sort(rng.choice(64, size=n, replace=False)).astype(float)
        knots *= 10.0 ** draw(st.integers(-2, 3))
        lo, hi = knots[0], knots[-1]
        span = hi - lo
        probes = np.concatenate([
            knots,
            rng.uniform(lo, hi, size=draw(st.integers(1, 12))),
            lo - span * rng.uniform(0.01, 2.0, size=2),
            hi + span * rng.uniform(0.01, 2.0, size=2)])
        axes.append((knots, rng.permutation(probes)))
    scale = 10.0 ** rng.uniform(-3, 9, size=(k, 1, 1))
    grids = rng.standard_normal((k, len(axes[0][0]), len(axes[1][0]))) * scale
    return axes, grids


@settings(max_examples=150, deadline=None, derandomize=True)
@given(problem=stacked_problems())
def test_stacked_evaluation_equals_single_evaluation(problem):
    ((xs, px), (ys, py)), grids = problem
    k = len(grids)
    rows = grids[:, :, 0]
    surface, spline = fit_bicubic_surface(xs, ys, grids), fit_natural_spline(xs, rows)
    fits = [(surface, grids, [fit_bicubic_surface(xs, ys, g) for g in grids], (px, py)),
            (spline, rows, [fit_natural_spline(xs, r) for r in rows], (px,))]
    for stacked, want_values, singles, points in fits:
        assert_same_bits(stacked.grid, want_values)
        for r, single in enumerate(singles):
            assert_same_bits(stacked.coeffs[r], single.coeffs)
        m = min(len(p) for p in points)
        flat = tuple(p[:m] for p in points)
        # broadcast: each axis's probes against every other axis's probes
        mesh = tuple(p.reshape((-1,) + (1,) * (len(points) - 1 - d))
                     for d, p in enumerate(points))
        for pts in (flat, mesh):
            got = stacked(*pts)
            assert got.shape == (k,) + np.broadcast_shapes(*(p.shape for p in pts))
            for r, single in enumerate(singles):
                assert_same_bits(got[r], single(*pts))
        for r, single in enumerate(singles):
            assert_same_bits(stacked(*flat)[r], loop_call(single, *flat))
        # a mesh gives what its flattened points give
        full = np.broadcast_arrays(*mesh)
        assert_same_bits(stacked(*mesh).reshape(k, -1),
                         stacked(*(a.ravel() for a in full)))
        for point in zip(*(p.tolist() for p in flat)):
            got = stacked(*point)
            assert got.shape == (k,)
            for r, single in enumerate(singles):
                alone = single(*point)
                assert type(alone) is float
                assert_same_bits(got[r], np.float64(alone))
                assert_same_bits(got[r], loop_call(single, *point))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(problem=stacked_problems())
def test_knots_give_their_grid_values_and_other_points_the_exact_spline(problem):
    # in 1-D and 2-D, stacked and alone: every knot evaluates to its grid
    # value bit for bit, each stacked row is the fit of it alone bit for
    # bit, and elsewhere, beyond the knots too, the value is within 1e-12
    # of the natural spline in exact rational arithmetic, relative to the
    # largest magnitude among the row's grid and the exact values probed
    ((xs, px), (ys, py)), grids = problem
    for fit, knots, stack, probes in ((fit_bicubic_surface, (xs, ys), grids, (px, py)),
                                      (fit_natural_spline, (xs,), grids[:, :, 0], (px,))):
        mesh = np.meshgrid(*knots, indexing="ij")
        stacked = fit(*knots, stack)
        assert_same_bits(stacked(*mesh), stack)
        # per axis: the probes below and above the knots and three between
        off = [np.sort(p[~np.isin(p, k)]) for k, p in zip(knots, probes)]
        off = [np.concatenate([o[:1], o[1:-1][:3], o[-1:]]).tolist() for o in off]
        points = list(itertools.product(*off))
        for r, grid in enumerate(stack):
            single = fit(*knots, grid)
            assert_same_bits(single(*mesh), grid)
            assert_same_bits(stacked.coeffs[r], single.coeffs)
            exact = [exact_value(knots, grid.tolist(), pt) for pt in points]
            scale = max(max(map(abs, exact)), Fraction(float(np.max(np.abs(grid)))))
            for pt, want in zip(points, exact):
                assert abs(Fraction(single(*pt)) - want) <= Fraction(1e-12) * scale, pt


def test_critical_points_refuse_a_stack():
    xs, ys = np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0])
    grids = np.arange(12.0).reshape(2, 3, 2) ** 2
    surface = fit_bicubic_surface(xs, ys, grids)
    spline = fit_natural_spline(xs, grids[:, :, 0])
    for stacked in (surface, spline):
        with pytest.raises(TypeError, match="not a stack"):
            find_critical_points(stacked)
    # a row fitted alone is not a stack
    assert find_critical_points(fit_bicubic_surface(xs, ys, grids[0]))
    assert find_critical_points(fit_natural_spline(xs, grids[0, :, 0]))
