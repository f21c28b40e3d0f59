"""Natural cubic splines in one and two dimensions.

The fitting primitives underneath every model in this package: a 1-D
natural spline through arbitrary knots, and a tensor-product bicubic
surface. Both are evaluated for their values only: the optimizer scores
the knot lattice, where configurations can actually be deployed.
"""

import numpy as np

from xfertune import fit_bicubic_surface, fit_natural_spline


def main():
    print("== 1-D natural cubic spline ==")
    x = np.array([0.0, 1.0, 2.5, 4.0, 6.0])
    y = np.array([0.0, 1.0, -0.5, 2.0, 1.0])
    s = fit_natural_spline(x, y)
    print(f"knots x = {x.tolist()}")
    print(f"values y = {y.tolist()}")
    print(f"interpolates the knots: {np.allclose(s(x), y)}")

    t = np.linspace(0, 6, 7)
    print("\n  t      s(t)")
    for ti in t:
        print(f"  {ti:4.1f} {s(ti):8.3f}")

    # per-cell coefficients are in the local basis c0 + c1 u + c2 u^2 + c3 u^3,
    # u = x - (the cell's knot), so c0 is the knot's own value
    print(f"\nfirst-cell coefficients: {np.round(s.coeffs[0], 4).tolist()}")

    print("\n== bicubic surface ==")
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    ys = np.array([1200.0, 1800.0, 2300.0])
    # a smooth bump over the grid, peak near (4, 1800)
    grid = np.array([[np.exp(-((gx - 4) ** 2) / 8 - ((gy - 1800) / 600) ** 2)
                      for gy in ys] for gx in xs])
    f = fit_bicubic_surface(xs, ys, grid)
    print(f"grid {grid.shape[0]}x{grid.shape[1]} over x={xs.tolist()}, "
          f"y={ys.tolist()}")
    print(f"reproduces the grid exactly: "
          f"{np.array_equal([[f(gx, gy) for gy in ys] for gx in xs], grid)}")
    between = [[f(gx, gy) for gy in (1500.0, 2050.0)] for gx in (3.0, 6.0)]
    print(f"between the knots: {np.round(between, 4).tolist()}")


if __name__ == "__main__":
    main()
