"""Mixed moduli of smoothness and anisotropic polynomial approximation in L_p.

The package computes, on axis-aligned boxes and for any exponent
0 < p <= inf:

* mixed finite differences and the sup / p-mean moduli of smoothness
  built from them, per axis subset and in total;
* best approximation by tensor polynomials of fixed per-axis degree:
  the exact best constant for one coefficient, else projection at
  p = 2 and for data in P_r, an exact vertex descent at p = 1,
  reweighted least squares for 1 < p < inf, Stiefel's exchange method
  for p = inf, and smoothed multi-start descent for nonconvex p < 1;
* exact identities linking differences and polynomials, in closed
  form with integer and rational coefficients (unit decomposition,
  reproduction formula, step halving);
* a verifier that measures both sides of every supported inequality on
  a shipped corpus, estimates the constants empirically, and hard-fails
  only where an explicit constant is known.
"""

from .domain import (
    Box,
    GridFunction,
    grid_points,
    lp_quasinorm,
    nonempty_axis_subsets,
    normalize_grid,
    restrict_order,
    sample_on_grid,
    shrink_domain,
)
from .differences import (
    ModulusRequest,
    difference_field,
    lower_whitney_constant,
    mixed_difference,
    modulus_mean,
    modulus_sup,
    total_modulus_mean,
    total_modulus_sup,
)
from .identities import (
    UnitDecomposition,
    annihilation_residual,
    halving_identity,
    reproduction_identity_gap,
    reproduction_residual,
    unit_decomposition,
)
from .polyapprox import (
    BestApproxResult,
    PiecewiseConstant,
    TensorPolynomial,
    best_approx,
    best_constant,
    piecewise_constant_approx,
    taylor_polynomial,
    taylor_remainder_bound,
)
from .corpus import CorpusFunction, corpus_entries, get_function
from .verifier import (
    InequalityReport,
    VerifierSettings,
    constant_bound_report,
    equivalence_report,
    estimate_constants,
    marchaud_report,
    run_suite,
    suite_identities,
    superadditivity_report,
    taylor_report,
    whitney_report,
)

__version__ = "0.1.0"
