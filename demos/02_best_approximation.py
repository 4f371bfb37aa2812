"""Best tensor-polynomial approximation across the exponent regimes.

The discrete best-approximation problem changes character with p:
strictly convex and separable at p = 2, a linear program at p = 1,
convex at 1 < p < inf, a minimax problem at p = inf, and nonconvex
for 0 < p < 1.  Fits by constants are exact at every p.  This script
fits the same functions at several exponents, checks a couple of
closed forms, and finishes with approximation by constants and
piecewise constants.
"""

import math

import numpy as np

from mixsmooth import (
    Box,
    best_approx,
    best_constant,
    piecewise_constant_approx,
    sample_on_grid,
)

box1 = Box.unit(1)

# x^2 against affine polynomials in L_2: the projection residual is
# 1/(6 sqrt 5) = 0.0745356 on the unit interval.
g = sample_on_grid(lambda X: X[..., 0] ** 2, box1, 256)
res = best_approx(g, (2,), 2.0)
print("E(x^2) by affine, p = 2:", res.error, " (closed form 0.0745356)")
print("  monomial coefficients:", np.round(res.polynomial.coeffs, 6))

# The same fit in L_1 interpolates at different nodes and gives 1/16;
# the vertex descent's dual point certifies it.
res = best_approx(g, (2,), 1.0)
print("E(x^2) by affine, p = 1:", res.error, " (closed form 1/16 = 0.0625)")
print("  vertex exchanges:", res.diagnostics["iterations"],
      " certified lower bound:", res.diagnostics["lower_bound"])

# Minimax by constants is the midrange; the error is half the spread.
# Every fit by constants is best_constant's exact answer, so the error
# is its own lower bound.
g_lin = sample_on_grid(lambda X: X[..., 0], box1, 256)
res = best_approx(g_lin, (1,), math.inf)
print("E(x) by constants, p = inf:", res.error, " constant:", res.polynomial.coeffs[0])
print("  method:", res.diagnostics["method"], " gap:", res.diagnostics["gap"])

# Below p = 1 the objective is nonconvex; the solver runs a seeded
# multi-start descent on a smoothed objective, all starts advancing
# together with each step solved from the current residual, and reports
# the spread of the local minima it found.
g_sing = sample_on_grid(lambda X: np.abs(X[..., 0] - 0.37) ** 0.5, box1, 128)
res = best_approx(g_sing, (2,), 0.5, seed=42)
print("\n|x - 0.37|^(1/2) by affine, p = 1/2:")
print("  error:", res.error)
print("  starts:", res.diagnostics["starts"], " spread of local minima:",
      f"{res.diagnostics['start_spread']:.3e}")

# By constants the p = 1/2 problem is solved exactly too: a best
# constant is a sample value, found by a branch-and-bound over the
# sorted values.
res = best_approx(g_sing, (1,), 0.5)
print("|x - 0.37|^(1/2) by constants, p = 1/2:")
print("  error:", res.error, " constant:", res.polynomial.coeffs[0])
print("  method:", res.diagnostics["method"], " gap:", res.diagnostics["gap"])

# Two-dimensional fits work the same way; degree bounds are per axis.
box2 = Box.unit(2)
g2 = sample_on_grid(lambda X: np.exp(X[..., 0] + X[..., 1]), box2, 48)
for p in (2.0, math.inf):
    res = best_approx(g2, (2, 2), p)
    print(f"\nexp(x+y) by bilinear, p = {p}: error {res.error:.6f}, "
          f"converged {res.converged}")

# Approximation by a single constant: scan the sampled values for the
# minimizer of the integrated p-th power distance.
beta, err = best_constant(g_lin, 1.0)
print("\nbest constant for f(x) = x in L_1:", beta, "error", err, "(1/2, 1/4)")

# Piecewise constants on a congruent subdivision: the total error
# decreases under refinement.
g_sin = sample_on_grid(
    lambda X: np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1]), box2, 64
)
for m in (1, 2, 4, 8):
    _, err = piecewise_constant_approx(g_sin, m, 1.0)
    print(f"piecewise constants, {m}x{m} cells: L_1 error {err:.6f}")
