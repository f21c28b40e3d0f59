"""Spline fitting tests.

The production fit uses a tridiagonal second-derivative solve. The oracle
here is an independent dense solve of the full piecewise system:
interpolation at both cell ends, first/second derivative continuity at
interior knots, and zero curvature at the boundary knots.
"""

import numpy as np
import pytest

from xfertune import SplineError, fit_bicubic_surface, fit_natural_spline


def basis_row(t: float, d: int) -> np.ndarray:
    if d == 0:
        return np.array([1.0, t, t * t, t ** 3])
    if d == 1:
        return np.array([0.0, 1.0, 2.0 * t, 3.0 * t * t])
    return np.array([0.0, 0.0, 2.0, 6.0 * t])


def dense_natural_coeffs(x, y) -> np.ndarray:
    """Per-cell absolute-basis coefficients from one dense linear solve."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cells = len(x) - 1
    size = 4 * cells
    a = np.zeros((size, size))
    rhs = np.zeros(size)
    row = 0
    for i in range(cells):
        a[row, 4 * i:4 * i + 4] = basis_row(x[i], 0)
        rhs[row] = y[i]
        row += 1
        a[row, 4 * i:4 * i + 4] = basis_row(x[i + 1], 0)
        rhs[row] = y[i + 1]
        row += 1
    for i in range(cells - 1):
        for d in (1, 2):
            a[row, 4 * i:4 * i + 4] = basis_row(x[i + 1], d)
            a[row, 4 * (i + 1):4 * (i + 1) + 4] = -basis_row(x[i + 1], d)
            row += 1
    a[row, 0:4] = basis_row(x[0], 2)
    row += 1
    a[row, 4 * (cells - 1):] = basis_row(x[-1], 2)
    row += 1
    assert row == size
    return np.linalg.solve(a, rhs).reshape(cells, 4)


def random_knots(rng, n: int, min_gap: float = 0.2) -> np.ndarray:
    start = rng.uniform(-1.0, 1.0)
    gaps = rng.uniform(min_gap, 1.0, size=n - 1)
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


def test_hand_worked_three_knot_spline():
    s = fit_natural_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    # first cell: s(t) = 1.5 t - 0.5 t^3
    assert np.allclose(s.coeffs[0], [0.0, 1.5, 0.0, -0.5], atol=1e-12)
    assert s(0.5) == pytest.approx(0.6875, abs=1e-12)
    assert s.deriv2(1.0) == pytest.approx(-3.0, abs=1e-12)
    assert s.deriv(0.0) == pytest.approx(1.5, abs=1e-12)


def test_matches_dense_solve_on_random_knots():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        x = random_knots(rng, n)
        y = rng.standard_normal(n)
        got = fit_natural_spline(x, y).coeffs
        want = dense_natural_coeffs(x, y)
        assert np.max(np.abs(got - want)) < 1e-8


def test_interpolates_and_has_natural_ends():
    rng = np.random.default_rng(1)
    x = random_knots(rng, 8)
    y = rng.standard_normal(8)
    s = fit_natural_spline(x, y)
    assert np.allclose(s(x), y, rtol=0, atol=1e-10)
    assert abs(s.deriv2(x[0])) < 1e-8
    assert abs(s.deriv2(x[-1])) < 1e-8


def test_continuity_at_interior_knots():
    rng = np.random.default_rng(2)
    x = random_knots(rng, 9)
    y = rng.standard_normal(9)
    s = fit_natural_spline(x, y)
    scale = max(1.0, np.max(np.abs(y)))
    for i in range(1, len(x) - 1):
        t = x[i]
        for d, tol in ((0, 1e-9), (1, 1e-9), (2, 1e-8)):
            left = basis_row(t, d) @ s.coeffs[i - 1]
            right = basis_row(t, d) @ s.coeffs[i]
            assert abs(left - right) < tol * scale


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
    assert np.allclose(s.deriv2(t), 0.0, atol=1e-12)


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


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(4)
    x = random_knots(rng, 7, min_gap=0.4)
    y = rng.standard_normal(7)
    s = fit_natural_spline(x, y)
    h = 1e-6
    pts = rng.uniform(x[0] + 0.05, x[-1] - 0.05, size=200)
    # keep the stencil inside a single cell
    pts = pts[np.min(np.abs(pts[:, None] - x[None, :]), axis=1) > 3 * h]
    fd1 = (s(pts + h) - s(pts - h)) / (2 * h)
    fd2 = (s.deriv(pts + h) - s.deriv(pts - h)) / (2 * h)
    assert np.allclose(s.deriv(pts), fd1, rtol=1e-5, atol=1e-7)
    assert np.allclose(s.deriv2(pts), fd2, rtol=1e-5, atol=1e-7)


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
            assert f(xs[i], ys[j]) == pytest.approx(grid[i, j], abs=1e-10)


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


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(9)
    xs, ys, grid, f = random_surface(rng, 5, 6)
    # h trades truncation against the ~1e-11 cancellation noise of the
    # absolute power basis; 1e-4 keeps both under the 1e-6 budget
    h = 1e-4
    scale = max(1.0, np.max(np.abs(grid)))
    for x, y in sample_points_with_margin(rng, xs, ys, 60, 4 * h):
        gx, gy = f.gradient(x, y)
        assert gx == pytest.approx((f(x + h, y) - f(x - h, y)) / (2 * h),
                                   abs=1e-6 * scale)
        assert gy == pytest.approx((f(x, y + h) - f(x, y - h)) / (2 * h),
                                   abs=1e-6 * scale)
        fxx, fxy, fyy = f.hessian(x, y)
        gxp = f.gradient(x + h, y)
        gxm = f.gradient(x - h, y)
        gyp = f.gradient(x, y + h)
        gym = f.gradient(x, y - h)
        assert fxx == pytest.approx((gxp[0] - gxm[0]) / (2 * h), abs=1e-6 * scale)
        assert fyy == pytest.approx((gyp[1] - gym[1]) / (2 * h), abs=1e-6 * scale)
        assert fxy == pytest.approx((gyp[0] - gym[0]) / (2 * h), abs=1e-6 * scale)
        assert fxy == pytest.approx((gxp[1] - gxm[1]) / (2 * h), abs=1e-6 * scale)


def test_surface_is_natural_normal_to_edges():
    rng = np.random.default_rng(10)
    xs, ys, grid, f = random_surface(rng, 5, 5)
    for y in np.linspace(ys[0], ys[-1], 9):
        assert abs(f.hessian(xs[0], y)[0]) < 1e-8
        assert abs(f.hessian(xs[-1], y)[0]) < 1e-8
    for x in np.linspace(xs[0], xs[-1], 9):
        assert abs(f.hessian(x, ys[0])[2]) < 1e-8
        assert abs(f.hessian(x, ys[-1])[2]) < 1e-8


def block_eval(block: np.ndarray, x: float, y: float, dx: int, dy: int) -> float:
    return float(basis_row(x, dx) @ block @ basis_row(y, dy))


def test_surface_continuity_across_cell_boundaries():
    rng = np.random.default_rng(11)
    xs, ys, grid, f = random_surface(rng, 5, 4)
    scale = max(1.0, np.max(np.abs(grid)))
    probes = np.linspace(ys[0] + 0.01, ys[-1] - 0.01, 7)
    for i in range(1, len(xs) - 1):
        for y in probes:
            j = int(np.searchsorted(ys, y, side="right") - 1)
            for dx, dy, tol in ((0, 0, 1e-9), (1, 0, 1e-9), (2, 0, 1e-8),
                                (0, 1, 1e-9), (1, 1, 1e-8)):
                left = block_eval(f.coeffs[i - 1, j], xs[i], y, dx, dy)
                right = block_eval(f.coeffs[i, j], xs[i], y, dx, dy)
                assert abs(left - right) < tol * scale


def test_surface_rejects_bad_input():
    with pytest.raises(SplineError):
        fit_bicubic_surface([0.0, 1.0], [0.0, 1.0], np.zeros((3, 2)))
    with pytest.raises(SplineError):
        fit_bicubic_surface([1.0, 0.0], [0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(SplineError):
        fit_bicubic_surface([0.0, 1.0], [0.0, 1.0], np.array([[0.0, 1.0], [np.inf, 2.0]]))


# -- batched solves against the per-row loop ----------------------------------
#
# fit_bicubic_surface solves every grid row, then every (cell, power) column,
# in one batched call each. The legacy_* functions are the 1-D solver and the
# per-row loop it replaced, kept as the reference: each coefficient must come
# out bit for bit the same.


def legacy_thomas(lower, diag, upper, rhs):
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


def legacy_natural_coeffs(x, y):
    n = len(x)
    m = np.zeros(n)
    h = np.diff(x)
    if n > 2:
        slope = np.diff(y) / h
        rhs = 6.0 * (slope[1:] - slope[:-1])
        diag = 2.0 * (h[:-1] + h[1:])
        lower = np.concatenate(([0.0], h[1:-1]))
        upper = np.concatenate((h[1:-1], [0.0]))
        m[1:-1] = legacy_thomas(lower, diag, upper, rhs)
    xi, yi = x[:-1], y[:-1]
    c1 = np.diff(y) / h - h * (2.0 * m[:-1] + m[1:]) / 6.0
    c2 = m[:-1] / 2.0
    c3 = (m[1:] - m[:-1]) / (6.0 * h)
    a3 = c3
    a2 = c2 - 3.0 * c3 * xi
    a1 = c1 - 2.0 * c2 * xi + 3.0 * c3 * xi * xi
    a0 = yi - c1 * xi + c2 * xi * xi - c3 * xi ** 3
    return np.column_stack([a0, a1, a2, a3])


def legacy_surface_coeffs(xs, ys, grid):
    nx, ny = grid.shape
    ycoef = np.zeros((nx, ny - 1, 4))
    for i in range(nx):
        ycoef[i] = legacy_natural_coeffs(ys, grid[i])
    if not np.all(np.isfinite(ycoef)):
        raise SplineError("y values must be finite")
    coeffs = np.zeros((nx - 1, ny - 1, 4, 4))
    for j in range(ny - 1):
        for b in range(4):
            coeffs[:, j, :, b] = legacy_natural_coeffs(xs, ycoef[:, j, b])
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
                         legacy_surface_coeffs(xs, ys, grid))
        assert_same_bits(fit_natural_spline(xs, grid[:, 0]).coeffs,
                         legacy_natural_coeffs(xs, grid[:, 0]))


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 5), (5, 2), (4, 4)])
def test_batched_fit_raises_as_the_per_row_loop_on_overflow(nx, ny):
    rng = np.random.default_rng(nx * 10 + ny)
    xs = 1e3 + np.arange(nx, dtype=float)
    ys = 1e3 + np.cumsum(rng.uniform(0.5, 1.0, ny))
    grid = rng.standard_normal((nx, ny)) * 1e305
    with np.errstate(all="ignore"):
        with pytest.raises(SplineError, match="^y values must be finite$"):
            legacy_surface_coeffs(xs, ys, grid)
        with pytest.raises(SplineError, match="^y values must be finite$"):
            fit_bicubic_surface(xs, ys, grid)
    # finite rows whose x pass overflows: that pass is not checked, so both
    # give the same infinite and NaN coefficients
    grid = np.full((nx, ny), 1e307)
    grid[0] = -1e307
    xs = 1e6 * (10.0 + np.arange(nx))
    with np.errstate(all="ignore"):
        want = legacy_surface_coeffs(xs, ys, grid)
        assert not np.all(np.isfinite(want))
        assert_same_bits(fit_bicubic_surface(xs, ys, grid).coeffs, want)
