"""Natural cubic splines in one and two dimensions.

1-D fits solve the tridiagonal second-derivative system with natural end
conditions (zero curvature at both boundary knots). Surfaces are tensor
products: a spline along y per grid row, then splines along x through each
resulting coefficient, giving per-cell bicubic polynomials that are C2 in
both directions. The solver takes many right-hand sides at once, so a
surface is two batched solves (all rows, then all coefficient columns); each
column goes through the same floating-point operations in the same order as
a 1-D fit, so the coefficients equal those of one fit per row bit for bit.
Evaluation outside the knot range extends the boundary cell polynomial;
callers should treat that as extrapolation.

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
    if np.any(np.diff(x) <= 0):
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


def _second_derivatives(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot second derivatives M with natural ends M[0] = M[-1] = 0, of y
    of shape (n,) or of each column of y of shape (n, k)."""
    n = len(x)
    m = np.zeros(y.shape)
    if n == 2:
        return m
    h = np.diff(x)
    # interior row i: h[i-1]*M[i-1] + 2(h[i-1]+h[i])*M[i] + h[i]*M[i+1] = rhs
    slope = np.diff(y, axis=0) / _knot_axis(h, y)
    rhs = 6.0 * (slope[1:] - slope[:-1])
    diag = 2.0 * (h[:-1] + h[1:])
    lower = np.concatenate(([0.0], h[1:-1]))
    upper = np.concatenate((h[1:-1], [0.0]))
    m[1:-1] = _thomas(lower, diag, upper, rhs)
    return m


@dataclass(frozen=True)
class Spline1D:
    """Piecewise cubic with absolute-basis coefficients per cell."""

    knots: np.ndarray            # shape (n,)
    coeffs: np.ndarray           # shape (n-1, 4), columns a0..a3
    values: np.ndarray           # y at knots

    def cell_index(self, t):
        idx = np.searchsorted(self.knots, t, side="right") - 1
        return np.clip(idx, 0, len(self.knots) - 2)

    def _eval(self, t, derivative: int):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        a = self.coeffs[self.cell_index(tt)]
        if derivative == 0:
            out = a[:, 0] + tt * (a[:, 1] + tt * (a[:, 2] + tt * a[:, 3]))
        elif derivative == 1:
            out = a[:, 1] + tt * (2.0 * a[:, 2] + 3.0 * tt * a[:, 3])
        elif derivative == 2:
            out = 2.0 * a[:, 2] + 6.0 * tt * a[:, 3]
        else:
            raise SplineError("derivative order must be 0, 1 or 2")
        return float(out[0]) if scalar else out

    def __call__(self, t):
        return self._eval(t, 0)

    def deriv(self, t):
        return self._eval(t, 1)

    def deriv2(self, t):
        return self._eval(t, 2)


def _natural_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Absolute-basis cell coefficients of the natural spline through checked
    knots x and finite values y: shape (n-1, 4) for y of shape (n,), and
    (n-1, k, 4) for the k splines through the columns of y of shape (n, k).
    Each column goes through the same scalar operations in the same order as
    a 1-D y, so its coefficients are bit-identical to a fit of it alone."""
    m = _second_derivatives(x, y)
    h = np.diff(x)
    xi, yi = x[:-1], y[:-1]
    hc, xc, xc3 = (_knot_axis(v, y) for v in (h, xi, xi ** 3))
    c1 = np.diff(y, axis=0) / hc - hc * (2.0 * m[:-1] + m[1:]) / 6.0
    c2 = m[:-1] / 2.0
    c3 = (m[1:] - m[:-1]) / _knot_axis(6.0 * h, y)
    # expand s(t) = y_i + c1*u + c2*u^2 + c3*u^3, u = t - x_i, into powers of t
    a3 = c3
    a2 = c2 - 3.0 * c3 * xc
    a1 = c1 - 2.0 * c2 * xc + 3.0 * c3 * xc * xc
    a0 = yi - c1 * xc + c2 * xc * xc - c3 * xc3
    return np.stack([a0, a1, a2, a3], axis=-1)


def fit_natural_spline(x, y) -> Spline1D:
    """Interpolating natural cubic spline through (x, y).

    x must be strictly increasing. With two points the result is the straight
    line (which satisfies the natural conditions exactly).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_knots(x, "x")
    if y.shape != x.shape:
        raise SplineError("x and y must have the same length")
    if not np.all(np.isfinite(y)):
        raise SplineError("y values must be finite")
    return Spline1D(knots=x, coeffs=_natural_coeffs(x, y), values=y.copy())


def _pow_rows(t: np.ndarray, derivative: int) -> np.ndarray:
    """Rows of basis powers [1, t, t^2, t^3] or a derivative thereof."""
    z = np.zeros_like(t)
    o = np.ones_like(t)
    if derivative == 0:
        return np.stack([o, t, t * t, t ** 3], axis=-1)
    if derivative == 1:
        return np.stack([z, o, 2.0 * t, 3.0 * t * t], axis=-1)
    if derivative == 2:
        return np.stack([z, z, 2.0 * o, 6.0 * t], axis=-1)
    raise SplineError("derivative order must be 0, 1 or 2")


@dataclass(frozen=True)
class Surface:
    """Bicubic spline surface on a rectangular grid.

    coeffs[i, j, a, b] multiplies x^a * y^b on the cell
    [xs[i], xs[i+1]] x [ys[j], ys[j+1]].
    """

    xs: np.ndarray
    ys: np.ndarray
    coeffs: np.ndarray           # shape (nx-1, ny-1, 4, 4)
    grid: np.ndarray             # fitted values, shape (nx, ny)

    def _cells(self, x, y):
        i = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, len(self.xs) - 2)
        j = np.clip(np.searchsorted(self.ys, y, side="right") - 1, 0, len(self.ys) - 2)
        return i, j

    def _eval(self, x, y, dx: int, dy: int):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        scalar = x.ndim == 0 and y.ndim == 0
        xx, yy = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
        i, j = self._cells(xx, yy)
        px = _pow_rows(xx, dx)
        py = _pow_rows(yy, dy)
        out = np.einsum("na,nab,nb->n", px, self.coeffs[i, j], py)
        return float(out[0]) if scalar else out

    def __call__(self, x, y):
        return self._eval(x, y, 0, 0)

    def gradient(self, x, y):
        return self._eval(x, y, 1, 0), self._eval(x, y, 0, 1)

    def hessian(self, x, y):
        fxx = self._eval(x, y, 2, 0)
        fxy = self._eval(x, y, 1, 1)
        fyy = self._eval(x, y, 0, 2)
        return fxx, fxy, fyy


def fit_bicubic_surface(xs, ys, grid) -> Surface:
    """Tensor-product natural bicubic surface interpolating grid values.

    grid[i, j] is the value at (xs[i], ys[j]). Fitting order does not matter:
    splining rows in y and then each coefficient in x equals the transpose
    construction because spline fitting is linear in the data. The knots
    are checked once, not per 1-D fit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    grid = np.asarray(grid, dtype=float)
    _check_knots(xs, "xs")
    _check_knots(ys, "ys")
    if grid.shape != (len(xs), len(ys)):
        raise SplineError("grid must have shape (len(xs), len(ys))")
    if not np.all(np.isfinite(grid)):
        raise SplineError("grid values must be finite")
    nx, ny = grid.shape
    # every grid row along y at once: ycoef[i, j, b] of row i, cell j, power b
    ycoef = _natural_coeffs(ys, grid.T).transpose(1, 0, 2)
    # huge grid values can overflow the row coefficients
    if not np.all(np.isfinite(ycoef)):
        raise SplineError("y values must be finite")
    # then every (cell j, power b) column along x at once, giving [i, (j, b), a]
    xcoef = _natural_coeffs(xs, ycoef.reshape(nx, (ny - 1) * 4))
    # a contiguous copy, as before: numpy may sum a strided operand in
    # another order, so a view could change evaluated values in the last bit
    coeffs = xcoef.reshape(nx - 1, ny - 1, 4, 4).transpose(0, 1, 3, 2).copy()
    return Surface(xs=xs, ys=ys, coeffs=coeffs, grid=grid.copy())
