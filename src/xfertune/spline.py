"""Natural cubic splines on the tensor grid of their knots, in one or two
dimensions.

A Spline stores its cells in the local (pp-form) basis of de Boor's A
Practical Guide to Splines: along an axis with knots x, the cell of knot i
is c0 + c1*u + c2*u^2 + c3*u^3 with u = t - x[i], so c0 is the knot's own
value. There is one cell per knot: the last knot's cell continues the last
cubic, and the first cell extends below the first knot, so evaluation
outside the knot range extends the boundary cubics (callers should treat
that as extrapolation). A point's cell is the last knot at or below it, so
on a knot every u is exactly 0 and the spline returns its grid value bit
for bit (a grid value of -0.0 may come back as 0.0).

A fit is one batched natural 1-D fit per axis, in order: every line of
values along the first axis, then every resulting coefficient along the
next, each pass appending its power axis. A 1-D fit solves the tridiagonal
second-derivative system with zero curvature at both boundary knots; a 2-D
fit is the bicubic tensor product, C2 in both directions. Every line goes
through the same floating-point operations in the same order as a 1-D fit
of it alone, so a stack of value arrays on the same knots (the energy and
throughput grids of one parameter group), held on leading axes, fits each
array bit for bit as a fit of it alone would. Coefficients that overflow
(huge finite values) raise SplineError. A spline is called for its values
only, at a point or at arrays of points: one cell lookup per point for the
whole stack, then one Horner scheme per axis, nested with the last axis
innermost.
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
    column of rhs of shape (n, ...) at once. Diagonally dominant input assumed."""
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


def _second_derivatives(h: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Knot second derivatives M with natural ends M[0] = M[-1] = 0, from
    the knot gaps h (shape (n-1,)) and the cell slopes (shape (n-1, ...),
    one column per line of values)."""
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


def _local_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Local-basis cell coefficients c0..c3 of the natural spline through
    checked knots x and values y whose axis 0 runs along x: shape
    y.shape + (4,), one cell per knot, the last continuing the last cubic.
    Each line of y goes through the same scalar operations in the same
    order as a 1-D y, so its coefficients are bit-identical to a fit of it
    alone. Differences are slice subtractions, the operation np.diff runs."""
    h = x[1:] - x[:-1]
    hc = h.reshape(h.shape + (1,) * (y.ndim - 1))
    slope = (y[1:] - y[:-1]) / hc
    m = _second_derivatives(h, slope)
    c1 = slope - hc * (2.0 * m[:-1] + m[1:]) / 6.0
    c3 = (m[1:] - m[:-1]) / (6.0 * hc)
    # the last cubic's slope at its right end, where the last cell starts
    end = slope[-1:] + hc[-1:] * (m[-2:-1] + 2.0 * m[-1:]) / 6.0
    return np.stack([y, np.concatenate((c1, end)), m / 2.0,
                     np.concatenate((c3, c3[-1:]))], axis=-1)


@dataclass(frozen=True)
class Spline:
    """Natural cubic splines on one tensor grid of knots, one per stacked grid.

    coeffs[..., i1, .., id, a1, .., ad] multiplies u1^a1 * .. * ud^ad on the
    cell of knot (i1, .., id), where uk = tk - knots[k][ik].
    """

    knots: tuple                 # one strictly increasing axis per dimension
    coeffs: np.ndarray           # shape (*lead, n1, .., nd, 4, .., 4)
    grid: np.ndarray             # fitted values, shape (*lead, n1, .., nd)

    def __call__(self, *t):
        t = [np.asarray(v, dtype=float) for v in t]
        # a point's cell is the last knot at or below it, or the first knot
        # below them all: the count of the knots after the first that are <= t
        cells = [np.searchsorted(x[1:], v, side="right") for x, v in zip(self.knots, t)]
        # the cell arrays broadcast as indices, each offset u as an operand
        c = self.coeffs[(..., *cells) + (slice(None),) * len(t)]
        for d in reversed(range(len(t))):
            u = (t[d] - self.knots[d][cells[d]]).reshape(t[d].shape + (1,) * d)
            c = c[..., 0] + u * (c[..., 1] + u * (c[..., 2] + u * c[..., 3]))
        return float(c) if c.ndim == 0 else c


def _fit(knots: tuple, values: np.ndarray, name: str) -> Spline:
    """The natural spline through values on the mesh of checked knots, one
    batched 1-D fit per axis; values may stack grids on leading axes. Huge
    finite values can overflow the coefficients: this checks them once, so
    the overflow is not also reported as a warning (a non-finite value
    stays non-finite through every later pass)."""
    lead = values.ndim - len(knots)
    coeffs = values
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, x in enumerate(knots, start=lead):
            coeffs = np.moveaxis(_local_coeffs(x, np.moveaxis(coeffs, axis, 0)), 0, axis)
    if not np.all(np.isfinite(coeffs)):
        raise SplineError(f"{name} coefficients overflow")
    return Spline(knots=knots, coeffs=coeffs, grid=values)


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
    return _fit((x,), y, "spline")


def fit_bicubic_surface(xs, ys, grid):
    """Tensor-product natural bicubic surface interpolating grid values.

    grid[i, j] is the value at (xs[i], ys[j]). A grid of shape (k, nx, ny)
    is a stack of k grids on the same knots, fitted in the same two solves
    into one surface whose row g is bit for bit the fit of grid[g] alone.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    grid = np.array(grid, dtype=float)
    _check_knots(xs, "xs")
    _check_knots(ys, "ys")
    if grid.ndim not in (2, 3) or grid.shape[-2:] != (len(xs), len(ys)):
        raise SplineError("grid must have shape (len(xs), len(ys))")
    if not np.all(np.isfinite(grid)):
        raise SplineError("grid values must be finite")
    return _fit((xs, ys), grid, "surface")
