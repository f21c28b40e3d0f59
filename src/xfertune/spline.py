"""Natural cubic splines in one and two dimensions.

1-D fits solve the tridiagonal second-derivative system with natural end
conditions (zero curvature at both boundary knots). Surfaces are tensor
products: a spline along y per grid row, then splines along x through each
resulting coefficient, giving per-cell bicubic polynomials that are C2 in
both directions. The solver takes many right-hand sides at once, so a
surface is two batched solves (all rows, then all coefficient columns); each
column goes through the same floating-point operations in the same order as
a 1-D fit, so the coefficients equal those of one fit per row bit for bit.
Both fit functions also take a stack of value arrays on the same knots (the
energy and throughput grids of one parameter group) and fit them in the same
solves into one spline that holds the stack on leading axes, each row bit
for bit a fit of it alone. Coefficients that overflow (huge finite values or
knots) raise SplineError. A spline or surface is called for its values only,
at a point or at arrays of points, with one cell lookup for the whole stack;
evaluation outside the knot range extends the boundary cell polynomial, and
callers should treat that as extrapolation. The cell coefficients are plain
polynomials; xfertune.optimizer's critical-point search differentiates them.

Piece coefficients are stored in the absolute power basis: on cell i the
curve is a0 + a1*t + a2*t^2 + a3*t^3 with t the raw coordinate, not an
offset from the left knot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SplineError(ValueError):
    pass


def _check_knots(x: np.ndarray, label: str) -> None:
    if x.ndim != 1 or len(x) < 2:
        raise SplineError(f"{label}: need at least two knots")
    if not np.all(np.isfinite(x)):
        raise SplineError(f"{label}: knots must be finite")
    if np.any(x[1:] - x[:-1] <= 0):
        raise SplineError(f"{label}: knots must be strictly increasing")


def _thomas(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
            rhs: np.ndarray) -> np.ndarray:
    """Solve a tridiagonal system in O(n) for rhs of shape (n,), or for each
    column of rhs of shape (n, k) at once. Diagonally dominant input assumed."""
    n = len(diag)
    c = np.zeros(n)
    d = np.zeros(rhs.shape)
    c[0] = upper[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * c[i - 1]
        c[i] = upper[i] / denom if i < n - 1 else 0.0
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / denom
    out = np.zeros(rhs.shape)
    out[-1] = d[-1]
    for i in range(n - 2, -1, -1):
        out[i] = d[i] - c[i] * out[i + 1]
    return out


def _knot_axis(v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A knot-indexed 1-D v shaped to broadcast along y's first axis."""
    return v.reshape(v.shape + (1,) * (y.ndim - 1))


def _second_derivatives(h: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Knot second derivatives M with natural ends M[0] = M[-1] = 0, from
    the knot gaps h and the cell slopes of y: of shape (n-1,) for y of shape
    (n,), or (n-1, k) for each column of y of shape (n, k)."""
    m = np.zeros((len(h) + 1,) + slope.shape[1:])
    if len(h) == 1:
        return m
    # interior row i: h[i-1]*M[i-1] + 2(h[i-1]+h[i])*M[i] + h[i]*M[i+1] = rhs
    rhs = 6.0 * (slope[1:] - slope[:-1])
    diag = 2.0 * (h[:-1] + h[1:])
    lower = np.concatenate(([0.0], h[1:-1]))
    upper = np.concatenate((h[1:-1], [0.0]))
    m[1:-1] = _thomas(lower, diag, upper, rhs)
    return m


def cell_index(knots: np.ndarray, t):
    """Cell of each t: the last knot at or below it, clipped to the first
    and last cells, so evaluation outside the knots extends them."""
    return np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)


@dataclass(frozen=True)
class Spline1D:
    """Piecewise cubics, one per stacked row, in absolute-basis cell coefficients."""

    knots: np.ndarray            # shape (n,)
    coeffs: np.ndarray           # shape (*lead, n-1, 4), columns a0..a3
    values: np.ndarray           # y at knots, shape (*lead, n)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        a = self.coeffs[..., cell_index(self.knots, t), :]
        out = a[..., 0] + t * (a[..., 1] + t * (a[..., 2] + t * a[..., 3]))
        return float(out) if out.ndim == 0 else out


def _natural_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Absolute-basis cell coefficients of the natural spline through checked
    knots x and finite values y: shape (n-1, 4) for y of shape (n,), and
    (n-1, k, 4) for the k splines through the columns of y of shape (n, k).
    Each column goes through the same scalar operations in the same order as
    a 1-D y, so its coefficients are bit-identical to a fit of it alone.
    Differences are slice subtractions, the operation np.diff runs. Huge
    finite values or knots can overflow the coefficients: the callers check
    them, so the overflow is not also reported as a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        h = x[1:] - x[:-1]
        xi, yi = x[:-1], y[:-1]
        hc, xc, xc3 = (_knot_axis(v, y) for v in (h, xi, xi ** 3))
        slope = (y[1:] - y[:-1]) / hc
        m = _second_derivatives(h, slope)
        c1 = slope - hc * (2.0 * m[:-1] + m[1:]) / 6.0
        c2 = m[:-1] / 2.0
        c3 = (m[1:] - m[:-1]) / _knot_axis(6.0 * h, y)
        # expand s(t) = y_i + c1*u + c2*u^2 + c3*u^3, u = t - x_i, into powers of t
        a3 = c3
        a2 = c2 - 3.0 * c3 * xc
        a1 = c1 - 2.0 * c2 * xc + 3.0 * c3 * xc * xc
        a0 = yi - c1 * xc + c2 * xc * xc - c3 * xc3
    return np.stack([a0, a1, a2, a3], axis=-1)


def fit_natural_spline(x, y):
    """Interpolating natural cubic spline through (x, y).

    x must be strictly increasing. With two points the result is the straight
    line (which satisfies the natural conditions exactly). A y of shape
    (k, n) is a stack of k value rows on the same knots, fitted in one solve
    into one spline whose row r is bit for bit the fit of y[r] alone.
    """
    x = np.asarray(x, dtype=float)
    y = np.array(y, dtype=float)
    _check_knots(x, "x")
    if y.ndim not in (1, 2) or y.shape[-1] != len(x):
        raise SplineError("x and y must have the same length")
    if not np.all(np.isfinite(y)):
        raise SplineError("y values must be finite")
    coeffs = _natural_coeffs(x, y.T)
    if not np.all(np.isfinite(coeffs)):
        raise SplineError("spline coefficients overflow")
    return Spline1D(knots=x, coeffs=np.moveaxis(coeffs, 0, -2), values=y)


def _pow_rows(t: np.ndarray) -> np.ndarray:
    """Rows of basis powers [1, t, t^2, t^3]."""
    return np.stack([np.ones_like(t), t, t * t, t ** 3], axis=-1)


@dataclass(frozen=True)
class Surface:
    """Bicubic spline surfaces on a rectangular grid, one per stacked grid.

    coeffs[..., i, j, a, b] multiplies x^a * y^b on the cell
    [xs[i], xs[i+1]] x [ys[j], ys[j+1]].
    """

    xs: np.ndarray
    ys: np.ndarray
    coeffs: np.ndarray           # shape (*lead, nx-1, ny-1, 4, 4)
    grid: np.ndarray             # fitted values, shape (*lead, nx, ny)

    def __call__(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        block = self.coeffs[..., cell_index(self.xs, x), cell_index(self.ys, y), :, :]
        out = np.einsum("...a,...ab,...b->...", _pow_rows(x), block, _pow_rows(y))
        return float(out) if out.ndim == 0 else out


def fit_bicubic_surface(xs, ys, grid):
    """Tensor-product natural bicubic surface interpolating grid values.

    grid[i, j] is the value at (xs[i], ys[j]). Fitting order does not matter:
    splining rows in y and then each coefficient in x equals the transpose
    construction because spline fitting is linear in the data. The knots
    are checked once, not per 1-D fit. A grid of shape (k, nx, ny) is a
    stack of k grids on the same knots, fitted in the same two solves into
    one surface whose row g is bit for bit the fit of grid[g] alone.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    grid = np.array(grid, dtype=float)
    _check_knots(xs, "xs")
    _check_knots(ys, "ys")
    nx, ny = len(xs), len(ys)
    if grid.ndim not in (2, 3) or grid.shape[-2:] != (nx, ny):
        raise SplineError("grid must have shape (len(xs), len(ys))")
    if not np.all(np.isfinite(grid)):
        raise SplineError("grid values must be finite")
    k = grid.size // (nx * ny)
    # every row of every grid along y at once: [j, (g, i), b] of grid g,
    # row i, cell j, power b
    ycoef = _natural_coeffs(ys, grid.reshape(k * nx, ny).T)
    # huge grid values can overflow the row coefficients
    if not np.all(np.isfinite(ycoef)):
        raise SplineError("y values must be finite")
    # then every (g, j, b) column along x at once, giving [i, (g, j, b), a]
    columns = ycoef.reshape(ny - 1, k, nx, 4).transpose(2, 1, 0, 3)
    xcoef = _natural_coeffs(xs, columns.reshape(nx, k * (ny - 1) * 4))
    if not np.all(np.isfinite(xcoef)):
        raise SplineError("surface coefficients overflow")
    blocks = xcoef.reshape(nx - 1, k, ny - 1, 4, 4).transpose(1, 0, 2, 4, 3)
    # one contiguous copy: numpy may sum a strided operand in another
    # order, so a view could change evaluated values in the last bit
    coeffs = np.ascontiguousarray(blocks).reshape(grid.shape[:-2] + blocks.shape[1:])
    return Surface(xs=xs, ys=ys, coeffs=coeffs, grid=grid)
