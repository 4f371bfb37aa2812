"""Tensor polynomial spaces and best L_p approximation on grids.

A :class:`TensorPolynomial` has per-axis degree strictly below r_i; the
space of all such polynomials is the approximation target everywhere in
this package.  :func:`best_approx` minimizes the discrete L_p
quasi-norm of the residual on a midpoint grid, exact answers first.
With one coefficient (r all ones) every p gets the exact best constant
of :func:`best_constant`, its error returned as its own lower bound.
With more, the orthogonal projection in a per-axis orthonormalized
basis (thin QR per axis, no normal equations) answers p = 2, as its own
lower bound, and data within 64 eps max|values| of P_r at every p, with
lower bound 0 and gap 0.  Other data get a solver for their exponent:

* p = 1         an exact vertex descent (Barrodale and Roberts): the
                fit interpolates prod(r) nodes, and each exchange
                releases one of them and moves along that edge to the
                weighted median of its breakpoints, until the dual
                system certifies the vertex; the dual point is returned
                as a lower bound on the optimum;
* 1 < p < inf   iteratively reweighted least squares started from the
                p = 2 solution;
* p = inf       Stiefel's exchange method, the simplex method on the dual
                of the discrete minimax linear program: references of
                prod(r) + 1 nodes are exchanged until the maximum
                residual meets the reference's levelled error, which is
                a lower bound on the optimum and certifies it;
* 0 < p < 1     multi-start majorize-minimize descent on the smoothed
                objective sum (res^2 + eps^2)^(p/2) with a decreasing
                eps schedule; the starts advance together, one step of
                each per round, and each step is solved from the current
                residual by the weighted normal equations, built axis by
                axis; the returned value is an upper bound on the
                discrete optimum and the spread of local minima is
                reported.  That spread is not a certificate: the starts
                can agree on a local minimum far above the optimum.

Every regime does its tensor-product algebra with one contraction,
``_contract_stack``, one matrix per axis: the projection, the monomial
output, the p < 1 descent's normal equations, and the dense design of
the p = 1 descent, IRLS and the exchange method (the identity stack
contracted, which is the Kronecker product of the axis bases).

The axis bases depend on the box side, the grid count and the degree
bound alone, never on the samples or p.  ``_axis_basis`` keeps them in a
bounded memo (``_basis_of``, a ``functools.lru_cache`` of at most
``_BASIS_MEMO`` entries), keyed by ``(a, b, n, r)`` with the exact bits
of a and b, so -0.0 and 0.0 are two keys; the memoized arrays are
read-only.  A pass of any benchmark workload uses at most 4 of them.

Also here: anisotropic Taylor polynomials from a derivative factory, the
matching mixed-derivative remainder bracket, and the best-constant /
piecewise-constant approximants used to reduce low-order smoothness to
approximation by constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from .domain import (
    Box,
    GridFunction,
    _bits,
    _cells,
    _count,
    _evaluate,
    _exponent,
    _lp,
    _midpoints,
    _orders,
    lp_quasinorm,
    nonempty_axis_subsets,
    normalize_grid,
    restrict_order,
    sample_on_grid,
)

# Bound of the memo of per-axis bases (see the module docstring).
_BASIS_MEMO = 64
# The smallest normal double: the floor of the solvers' data-scaled tolerances.
_TINY = float(np.finfo(float).tiny)

__all__ = [
    "TensorPolynomial",
    "PiecewiseConstant",
    "BestApproxResult",
    "best_approx",
    "taylor_polynomial",
    "taylor_remainder_bound",
    "best_constant",
    "piecewise_constant_approx",
]


@dataclass(frozen=True)
class TensorPolynomial:
    """Polynomial with per-axis degree < r_i, in the global monomial basis.

    ``coeffs[s]`` multiplies ``prod_i x_i^{s_i}``; the coefficient
    tensor shape is exactly the degree-bound vector r.  Evaluation is
    Horner's scheme folded one axis at a time, in place, in numpy
    polyval's order, so bit-identical to polyval: ``c[-1] + x*0``, then
    ``c[-i] + acc*x`` into one accumulator per axis, signed zeros and NaN
    included.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, float)
        if c.ndim < 1:
            c = c.reshape(1)
        if not np.all(np.isfinite(c)):
            raise ValueError("polynomial coefficients must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree bounds (exclusive): shape of the coefficient tensor."""
        return self.coeffs.shape

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        c = self.coeffs.reshape(self.coeffs.shape + (1,) * (pts.ndim - 1))
        for i in range(self.dim):
            xi = pts[..., i]
            acc = c[-1] + xi * 0
            for j in range(2, len(c) + 1):
                acc *= xi
                # c[-j] first, as in polyval: a NaN meeting a NaN keeps its sign
                np.add(c[-j], acc, out=acc)
            c = acc
        return float(c[0]) if single else c

    def derivative(self, order: Sequence[int]) -> "TensorPolynomial":
        """Exact mixed derivative; orders past the degree give the zero polynomial."""
        c = self.coeffs
        for axis, m in enumerate(_orders(order)):
            c = nppoly.polyder(c, m, axis=axis)
        # past the degree polyder gives c[:1] * 0, -0.0 for negative c;
        # adding +0.0 turns it into +0.0 and leaves every other value
        return TensorPolynomial(c + 0.0)

    @classmethod
    def random(cls, degrees: Sequence[int], rng: np.random.Generator):
        return cls(rng.standard_normal(_orders(degrees)))


# ---------------------------------------------------------------------------
# Per-axis orthonormal bases and the p = 2 projection


def _axis_basis(a: float, b: float, n: int, r: int):
    """Discrete-orthonormal polynomial basis on the n midpoint nodes of [a, b].

    Returns (B, M): B is (n, r) with B[k, j] the value of basis function
    j at node k, orthonormal for the midpoint-quadrature inner product;
    M is (r, r) with column j holding the global monomial coefficients
    of basis function j.  Built from a Legendre Vandermonde in scaled
    coordinates plus a thin QR, which keeps the conditioning flat in
    the box geometry.  Both are read-only: the pair is memoized by the
    exact bits of a and b (``_basis_of``).
    """
    return _basis_of(_bits((a, b)), int(n), int(r))


@functools.lru_cache(maxsize=_BASIS_MEMO)
def _basis_of(ab_bits: bytes, n: int, r: int):
    """:func:`_axis_basis` on the interval whose bounds have the bits ``ab_bits``."""
    a, b = np.frombuffer(ab_bits).tolist()
    cw = (b - a) / n
    nodes = _midpoints(a, b, n)
    u = (2.0 * nodes - (a + b)) / (b - a)
    V = npleg.legvander(u, r - 1)
    q, rmat = np.linalg.qr(V * math.sqrt(cw))
    # fix the QR sign ambiguity so bases are reproducible
    signs = np.sign(np.diag(rmat))
    signs[signs == 0] = 1.0
    q = q * signs
    rmat = rmat * signs[:, None]
    B = q / math.sqrt(cw)
    rinv = np.linalg.inv(rmat)
    # Legendre-in-u -> monomial-in-u
    leg2mono = np.zeros((r, r))
    for m in range(r):
        unit = np.zeros(m + 1)
        unit[m] = 1.0
        leg2mono[: m + 1, m] = npleg.leg2poly(unit)
    # u = alpha*x + beta -> monomial-in-x
    M = _substitution(r, 2.0 / (b - a), -(a + b) / (b - a)) @ leg2mono @ rinv
    B.flags.writeable = M.flags.writeable = False
    return B, M


def _substitution(n: int, alpha: float, beta: float) -> np.ndarray:
    """(n, n) matrix whose column m holds the x-monomial coefficients of (alpha*x + beta)^m."""
    L = np.zeros((n, n))
    for m in range(n):
        for j in range(m + 1):
            L[j, m] = math.comb(m, j) * alpha**j * beta ** (m - j)
    return L


@dataclass
class BestApproxResult:
    """Best-approximation output: polynomial, achieved error, diagnostics."""

    polynomial: TensorPolynomial
    error: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)


# iteration cap of the p = 1 descent, IRLS and the exchange method
_MAX_ITER = 500
# random starts of the 0 < p < 1 descent, besides the p = 2 projection
_N_STARTS = 8
# iteration cap of each smoothed-descent stage of the 0 < p < 1 descent
_STAGE_ITER = 100


def _check_fit_grid(spec: Sequence[int], r: Sequence[int]) -> None:
    """Fewer than ``2 r_i`` points on an axis leave a fit underdetermined."""
    for n, ri in zip(spec, r):
        if n < 2 * ri:
            raise ValueError(f"{n} points per axis are underdetermined for degree bound {ri}")


def best_approx(
    g: GridFunction,
    r: Sequence[int],
    p: float,
    *,
    seed: int = 0,
) -> BestApproxResult:
    """Best tensor-polynomial approximation of grid samples in L_p.

    Requires at least ``2 r_i`` grid points per axis.  The achieved error
    is the discrete quasi-norm of the residual.  With r all ones (k = 1),
    at every p, the fit is :func:`best_constant`'s exact constant, method
    ``exact-constant``, with ``lower_bound`` equal to the error and ``gap``
    0.  With more coefficients, at p = 2, and at every p for data whose
    projection residual is at most 64 eps max|values| (data in P_r), the
    fit is the projection, method ``projection``, whose ``lower_bound`` is
    the error at p = 2 and 0 otherwise, with ``gap`` 0.  Otherwise, at
    p = 1 and p = inf the diagnostics carry ``lower_bound``, a dual lower
    bound on the optimum, and the relative ``gap`` to it; for 0 < p < 1,
    the only user of ``seed``, the error is an upper bound on the discrete
    optimum, and ``converged`` says whether the returned start's last
    (finest eps) descent stage met its stop test.  Non-convergence within
    the iteration budget is flagged in the result, not raised.
    """
    r = _orders(r, 1)
    if len(r) != g.box.dim:
        raise ValueError("degree vector must match the box dimension")
    p = _exponent(p)
    seed = _count(seed, "seed", 0)
    _check_fit_grid(g.spec, r)
    if math.prod(r) == 1:
        # one coefficient: the exact best constant, so the error is the optimum
        beta, err = best_constant(g, p)
        return BestApproxResult(
            TensorPolynomial(np.full(r, beta)), err, True, _certified("exact-constant", 0, err, err)
        )
    bases, monos = zip(
        *(_axis_basis(a, b, n, ri) for a, b, n, ri in zip(g.box.lower, g.box.upper, g.spec, r))
    )
    cv = g.cell_volume
    values = g.values
    rows = [B.T for B in bases]

    # exact discrete projection: contraction with each axis basis, weighted
    weighted = [B * cw for B, cw in zip(bases, g.cell_widths)]
    c2 = _contract_stack(values[None], weighted)[0]
    res2 = values - _contract_stack(c2[None], rows)[0]
    scale = float(np.abs(values).max(initial=0.0))
    # the data's rounding level: a residual within it is a member of P_r
    noise = 64.0 * np.finfo(float).eps * scale

    def finish(c, err, converged, diag):
        mono = _contract_stack(c[None], [M.T for M in monos])[0]
        return BestApproxResult(TensorPolynomial(mono), float(err), converged, diag)

    if p == 2.0 or np.abs(res2).max() <= noise:
        # the L2 optimum (bound: its error) and data in P_r at every p (bound 0): gap 0
        err = _lp(np.abs(res2), cv, p)
        lower = err if p == 2.0 else 0.0
        return finish(c2, err, True, _certified("projection", 0, lower, lower))

    if p < 1.0:
        # multi-start smoothed descent, every start advancing in lockstep
        rng = np.random.default_rng(seed)
        # data off P_r have scale > 0; both terms carry sqrt(|Q|), as the coefficients do
        amp = 0.5 * (_lp(np.abs(res2), cv, 2.0) + 1e-3 * scale * math.sqrt(g.box.volume))
        starts = [c2]
        for _ in range(_N_STARTS):
            starts.append(c2 + rng.standard_normal(c2.shape) * amp)
        coeffs, errors, iters, stopped = _lockstep_descent(
            bases, values, np.stack(starts), p, cv, scale
        )
        best = int(np.argmin(errors))
        per_start = errors.tolist()
        return finish(
            coeffs[best],
            per_start[best],
            bool(stopped[best]),
            {
                "method": "smoothed-multistart",
                "iterations": int(iters.sum()),
                "starts": len(starts),
                "start_errors": per_start,
                "start_spread": max(per_start) - min(per_start),
                "start_iterations": iters.tolist(),
            },
        )

    # the dense design: column j is the basis tensor of coefficient j
    eye = np.eye(c2.size).reshape(c2.size, *r)
    design = np.ascontiguousarray(_contract_stack(eye, rows).reshape(c2.size, -1).T)
    target = values.reshape(-1)
    c_flat = c2.reshape(-1)

    if p == 1.0:
        c, err, lower, iters, conv = _vertex_descent(
            design, target, res2.reshape(-1), scale, cv
        )
        return finish(
            c.reshape(c2.shape), err, conv, _certified("vertex-descent", iters, err, lower)
        )

    if p == math.inf:
        c, err, lower, iters, conv = _exchange(design, target, c_flat, noise)
        return finish(
            c.reshape(c2.shape), err, conv, _certified("exchange", iters, err, lower)
        )

    eps = max(1e-10 * scale, _TINY)
    c, err, iters, conv = _irls(design, target, c_flat, p, cv, eps)
    return finish(c.reshape(c2.shape), err, conv, {"method": "irls", "iterations": iters})


def _certified(method, iters, err, lower):
    """Diagnostics of a solver that returns a lower bound on the optimum."""
    return {
        "method": method,
        "iterations": iters,
        "lower_bound": lower,
        "gap": (err - lower) / err if err > 0 else 0.0,
    }


def _irls(design, target, c0, p, cv, eps):
    """Reweighted least squares for 1 < p < inf, with descent safeguard.

    Iterates are compared by their error ``_lp``; a step that lowers it by
    at most 1e-10 / p relative ends the iteration.  The weights are taken
    in units of the largest.  Returns ``(c, error, iterations, converged)``.
    """
    c = c0.copy()
    res = target - design @ c
    err = _lp(np.abs(res), cv, p)
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        size = np.maximum(np.abs(res), eps)
        w = (size / (size.max() if p > 2.0 else size.min())) ** (p - 2.0)
        sw = np.sqrt(w)
        c_new, *_ = np.linalg.lstsq(design * sw[:, None], target * sw, rcond=None)
        # damp toward the previous iterate if the true objective got worse
        step = 1.0
        for _ in range(30):
            cand = c + step * (c_new - c)
            res_new = target - design @ cand
            err_new = _lp(np.abs(res_new), cv, p)
            if err_new <= err or step < 1e-6:
                break
            step *= 0.5
        if err_new > err:
            converged = True
            break
        moved = err - err_new
        c, res, err = cand, res_new, err_new
        if moved <= 1e-10 / p * err:
            converged = True
            break
    return c, err, it, converged


def _start_reference(design, res):
    """Deterministic starting reference for the exchange method.

    Takes k = prod(r) nodes greedily by p = 2 residual size times the
    part of their design row not yet spanned (so the rows are
    independent), then the largest remaining residual.  The k + 1 rows
    have a one-dimensional left null space; its signs make the
    reference's weights nonnegative, i.e. a feasible dual basis.
    """
    size = np.abs(res)
    # best_approx's exact rule leaves only data off P_r, whose residual is not 0
    ref = _independent_rows(design, size + 1e-3 * size.max())
    size[ref] = -1.0
    ref.append(int(np.argmax(size)))
    ref = np.array(ref)
    null = np.linalg.svd(design[ref])[0][:, -1]
    return ref, np.where(null < 0, -1.0, 1.0)


def _independent_rows(design, weight):
    """k = design.shape[1] independent rows of the design, picked greedily.

    Each pick maximizes its weight times the norm of the part of its row
    that the rows already picked do not span, so every pick adds a
    dimension.  Returns the row indices in the order picked.
    """
    rows = design.copy()
    picked = []
    for _ in range(design.shape[1]):
        norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
        i = int(np.argmax(weight * norms))
        q = rows[i] / norms[i]
        rows -= np.outer(rows @ q, q)
        picked.append(i)
    return picked


# Relative size of the right-hand-side perturbation that breaks the
# degenerate (zero-weight) references tensor grids produce in bulk.
_PERTURB = 1e-9
# Relative size of the target perturbation on which the p = 1 descent
# makes its pivot decisions, so that tied breakpoints and extra zero
# residuals, which symmetric grids produce, cannot make it cycle.
_L1_PERTURB = 1e-11


def _golden_spread(m):
    """m distinct, irregular weights in [0.5, 1.5) (golden-ratio fractions)."""
    return 0.5 + (np.arange(1, m + 1) * 0.6180339887498949) % 1.0


def _exchange(design, target, c0, floor):
    """Stiefel's exchange method for min_c max_i |t_i - (D c)_i|.

    This is the simplex method on the dual linear program

        max sum_i lam_i s_i t_i  s.t.  sum_i lam_i s_i D_i = 0,
                                       sum_i lam_i = 1,  lam >= 0,

    whose bases are references: k + 1 nodes R with signs s.  The
    levelled system ``s_i (t_i - D_i c) = z`` on R gives the primal
    coefficients c and the level z; with nonnegative weights lam, z is a
    lower bound on the optimum, so ``max |t - Dc| <= z + floor`` certifies c.
    Otherwise the node of largest residual enters and the ratio test
    picks the node that leaves.  The ratio test runs on weights for a
    slightly perturbed right-hand side, so every exchange raises the
    perturbed objective and degenerate references cannot cycle; the
    certificate is checked on the unperturbed weights.  Returns
    ``(c, max residual, lower bound, exchanges, converged)`` with the
    best iterate seen.
    """
    k = design.shape[1]
    m = k + 1
    res = target - design @ c0
    best_c, best_max = c0, float(np.abs(res).max())
    ref, sig = _start_reference(design, res)
    basis = np.ones((m, m))
    basis[:k] = (design[ref] * sig[:, None]).T
    unit = np.zeros(m)
    unit[k] = 1.0
    # distinct, irregular weights (golden-ratio fractions), so perturbed
    # ratios do not tie where the grid's symmetry makes the true ones tie
    spread = _golden_spread(m)
    # columns: perturbed weights, entering column
    rhs = np.zeros((m, 2))
    rhs[:, 0] = unit + _PERTURB * (basis @ spread)
    z = 0.0
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        basis[:k] = (design[ref] * sig[:, None]).T
        y = np.linalg.solve(basis.T, sig * target[ref])
        c, z = y[:k], float(y[k])
        res = target - design @ c
        j = int(np.argmax(np.abs(res)))
        if abs(res[j]) < best_max:
            best_c, best_max = c, float(abs(res[j]))
        if best_max <= z * (1.0 + 1e-12) + floor:
            converged = bool(np.linalg.solve(basis, unit).min() >= -1e-12)
            break
        s = 1.0 if res[j] > 0 else -1.0
        rhs[:k, 1] = s * design[j]
        rhs[k, 1] = 1.0
        sol = np.linalg.solve(basis, rhs)
        mu = sol[:, 1]
        ok = np.flatnonzero(mu > 1e-9 * np.abs(mu).max())
        ratios = np.maximum(sol[ok, 0], 0.0) / mu[ok]
        ties = ok[ratios <= ratios.min() * (1.0 + 1e-12)]
        leave = ties[np.argmin(ref[ties])]  # Bland: smallest node index
        ref[leave], sig[leave] = j, s
    return best_c, best_max, min(max(z, 0.0), best_max), it, converged


def _vertex_descent(design, target, res2, scale, cv):
    """Exact descent over the vertices of min_c sum_i |t_i - (D c)_i| cv.

    Some minimizer interpolates k = prod(r) nodes S with D_S
    nonsingular: a vertex.  At a vertex the dual system
    ``D_S^T lam = D^T sign(t - D c)`` (signs taken off S) gives the
    directional derivatives: releasing node j of S changes the
    objective at rate ``1 - |lam_j|``, so the vertex is optimal when
    max |lam| <= 1.  Otherwise the node of largest |lam_j| is released
    and c moves along that edge, where the objective is convex and
    piecewise linear in the step; its minimum is the weighted median
    of the breakpoints ``res_i / d_i`` (weights |d_i|, d = the edge's
    change of D c), whose node enters S.  This is the Barrodale-Roberts
    descent.  The start is the k nodes of smallest p = 2 residual
    ``res2`` with independent rows.

    Pivot decisions run on the target perturbed by a golden-ratio
    spread of alternating sign, ``_L1_PERTURB * scale`` in size, so
    every step strictly lowers the perturbed objective and degenerate
    vertices cannot cycle; the final vertex is then solved against the
    unperturbed target.  Its certificate is the last dual point,
    ``y = sign(res)`` off S and ``y_S = -lam``: ``D^T y = 0`` and, scaled
    by ``1 / max(1, max|lam|)``, |y| <= 1, so ``t . y`` is a lower bound
    on the unperturbed optimum.  Returns ``(c, sum |res| cv, lower bound,
    exchanges, converged)``; at the iteration cap the last vertex, the
    best seen for the perturbed target, is returned unconverged.
    """
    size = np.abs(res2)
    weight = 1.0 / (size + 1e-3 * float(size.max()))
    basis = np.array(_independent_rows(design, weight))
    spread = _golden_spread(design.shape[0])
    spread[1::2] *= -1.0
    shifted = target + _L1_PERTURB * scale * spread
    converged = False
    it = 0
    while True:
        inv = np.linalg.inv(design[basis])
        res = shifted - design @ (inv @ shifted[basis])
        sgn = np.sign(res)
        sgn[basis] = 0.0
        lam = inv.T @ (design.T @ sgn)
        j = int(np.argmax(np.abs(lam)))
        slope = abs(lam[j]) - 1.0
        if slope <= 1e-12:
            converged = True
            break
        if it == _MAX_ITER:
            break
        # along the edge the residuals move by -s * d, s > 0
        d = design @ (inv[:, j] * (1.0 if lam[j] > 0 else -1.0))
        d[basis] = 0.0
        ahead = np.flatnonzero(res * d > 0.0)
        order = ahead[np.argsort(res[ahead] / d[ahead])]
        # the slope rises by 2 |d_i| at each breakpoint it passes; past
        # them all it is 1 + sum |d_i| > 0, so some breakpoint ends the step
        rise = 2.0 * np.cumsum(np.abs(d[order]))
        basis[j] = order[np.searchsorted(rise, slope)]
        it += 1
    c = np.linalg.solve(design[basis], target[basis])
    err = _lp(np.abs(target - design @ c), cv, 1.0)
    # the last dual point is feasible whatever the target, so it bounds
    # the unperturbed optimum; signs it gets wrong are on zero residuals
    dual = float(sgn @ target - lam @ target[basis]) / max(1.0, float(np.abs(lam).max()))
    return c, err, min(max(dual * cv, 0.0), err), it, converged


def _contract_stack(stack: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """``out[b, s] = sum_k stack[b, k] prod_i M_i[k_i, s_i]`` along every axis.

    One matmul per axis on a reshaped view, with the stack axis and the
    axes already contracted in front, so nothing is transposed.
    """
    lead = stack.shape[0]
    out = stack
    for i, m in enumerate(mats):
        n, k = m.shape
        if i == len(mats) - 1:
            out = out.reshape(lead, n) @ m
        else:
            out = np.matmul(m.T, out.reshape(lead, n, -1))
        lead *= k
    return out.reshape(stack.shape[0], *(m.shape[1] for m in mats))


def _lockstep_descent(bases, values, starts, p, cv, eps_scale):
    """Majorize-minimize on sum (res^2 + eps^2)^(p/2) from every start at once.

    ``starts`` is an (S, r_1, ..., r_d) stack of coefficient tensors in
    the orthonormal axis bases.  Each start runs its own eps ladder
    ``10^-2 ... 10^-8 * eps_scale``, floored where eps^2 would leave the
    normal range; a stage ends when the relative
    decrease of the smoothed objective meets the stop test or after
    ``_STAGE_ITER`` steps.  One tick takes one step of every start still
    on its ladder: the weighted normal equations, built axis by axis,
    are solved for the step from the current residual, so the Gram's
    conditioning scales the step and not the iterate.  The working
    stack shrinks only when a start leaves its ladder.

    Returns ``(coeffs, errors, iterations, stopped)`` per start: the final
    coefficients and their error ``_lp``, the steps taken over all stages,
    and whether the last stage met its stop test.
    """
    # eps^2 stays normal, so obj > 0 and the relative stop test holds
    ladder = np.maximum([10.0**-k * eps_scale for k in range(2, 9)], math.sqrt(_TINY))
    size = starts.shape[0]
    r = starts.shape[1:]
    k = starts[0].size
    dim = len(r)
    # the Gram's axes come out as (a_1, b_1, ..., a_d, b_d)
    perm = (0, *range(1, 2 * dim + 1, 2), *range(2, 2 * dim + 1, 2))
    prods = [(B[:, :, None] * B[:, None, :]).reshape(B.shape[0], -1) for B in bases]
    rows = [B.T for B in bases]
    tail = (1,) * values.ndim

    out_c = np.empty_like(starts)
    out_err = np.empty(size)
    out_iters = np.zeros(size, dtype=int)
    out_stopped = np.zeros(size, dtype=bool)

    live = np.arange(size)
    c = starts.copy()
    res = values - _contract_stack(c, rows)
    stage = np.zeros(size, dtype=int)
    steps = np.zeros(size, dtype=int)
    eps = np.full(size, ladder[0])
    prev = np.zeros(size)

    def smoothed(res, eps, u=None, v=None):
        # u = res^2 + eps^2 and v = u^(p/2): the objective and, as v / u,
        # the next weights, from one power; u and v may be reused buffers
        u = np.square(res, out=u)
        u += (eps**2).reshape(-1, *tail)
        v = np.power(u, p / 2.0, out=v)
        return u, v, v.reshape(v.shape[0], -1).sum(axis=1) * cv

    u, v, obj = smoothed(res, eps)
    while True:
        stop = (steps > 0) & (np.abs(prev - obj) <= 1e-10 * obj)
        ended = stop | (steps >= _STAGE_ITER)
        if ended.any():
            out_iters[live[ended]] += steps[ended]
            out_stopped[live[ended]] = stop[ended]
            stage[ended] += 1
            steps[ended] = 0
            done = stage == len(ladder)
            moved = ended & ~done
            if moved.any():
                eps[moved] = ladder[stage[moved]]
                u[moved], v[moved], obj[moved] = smoothed(res[moved], eps[moved])
            if done.any():
                out_c[live[done]] = c[done]
                out_err[live[done]] = [_lp(a, cv, p) for a in np.abs(res[done])]
                keep = ~done
                if not keep.any():
                    break
                live, c, obj, stage, steps, eps = (
                    a[keep] for a in (live, c, obj, stage, steps, eps)
                )
                # one S-wide array at a time, so the copies do not pile up
                res = res[keep]
                u = u[keep]
                v = v[keep]
        w = np.divide(v, u, out=u)
        n_live = live.size
        gram = _contract_stack(w, prods)
        gram = gram.reshape(n_live, *(x for ri in r for x in (ri, ri)))
        gram = gram.transpose(perm).reshape(n_live, k, k)
        rhs = _contract_stack(w * res, bases).reshape(n_live, k, 1)
        c += np.linalg.solve(gram, rhs).reshape(c.shape)
        np.subtract(values, _contract_stack(c, rows), out=res)
        prev = obj
        steps += 1
        u, v, obj = smoothed(res, eps, w, v)
    return out_c, out_err, out_iters, out_stopped


# ---------------------------------------------------------------------------
# Taylor polynomials from derivative data


def taylor_polynomial(
    derivative: Callable, x0: Sequence[float], k: Sequence[int]
) -> TensorPolynomial:
    """Taylor polynomial of multi-order k around the base point ``x0``.

    Sums ``f^(s)(x0) * prod (x_i - x0_i)^{s_i} / s_i!`` over all s strictly
    below k componentwise, with ``derivative(s)`` the order-s mixed derivative.
    """
    k = _orders(k, 1)
    x0 = tuple(float(v) for v in x0)
    shifted = np.zeros(k)
    for s in np.ndindex(k):
        denom = 1.0
        for v in s:
            denom *= math.factorial(v)
        shifted[s] = float(_evaluate(derivative(s), np.asarray([x0]))[0]) / denom
    # expand (x - x0)^s into global monomials, one axis at a time
    mats = [_substitution(n, 1.0, -x0[i]).T for i, n in enumerate(k)]
    return TensorPolynomial(_contract_stack(shifted[None], mats)[0])


def taylor_remainder_bound(
    derivative: Callable,
    r: Sequence[int],
    p: float,
    box: Box,
    density=32,
) -> float:
    """Mixed-derivative bracket bounding the Taylor remainder up to a constant.

    Returns ``sum over nonempty subsets e of prod_{i in e} size_i^{r_i}
    times the L_p quasi-norm of derivative(r(e)) on the box``.  The
    multiplying constant is not included; it is estimated empirically
    by the verifier.  Stated for p >= 1 only.
    """
    if not p >= 1:
        raise ValueError("the remainder bracket is stated for p >= 1")
    r = _orders(r)
    size = box.size
    total = 0.0
    for e in nonempty_axis_subsets(box.dim):
        weight = 1.0
        for i in e:
            weight *= size[i] ** r[i]
        deriv = sample_on_grid(derivative(restrict_order(r, e)), box, density)
        total += weight * lp_quasinorm(deriv, p)
    return total


# ---------------------------------------------------------------------------
# Approximation by constants


def best_constant(g: GridFunction, p: float) -> tuple[float, float]:
    """Best constant in the discrete L_p sense and its quasi-norm error.

    * p = 2: the mean;  p = inf: the midrange;
    * other p > 1: the root of the derivative of the convex objective
      ``sum |f - beta|^p``, by bisection between the extreme values;
    * p = 1: the lower median, exact in O(n log n);
    * p < 1: the objective is concave between consecutive sample
      values, so a minimizer is a sample value.  The answer is the
      argmin of the whole n x n table of scores, bit for bit, and for
      ties the first value in row-major order wins; a branch-and-bound
      over segments of the sorted distinct values finds it without the
      table, dropping a segment only when its lower bound (the lesser
      endpoint value of the concave sum of the terms outside it)
      exceeds the best score by more than a rounding margin of
      ``2 gamma_n`` plus a few ulps per term (see
      ``_concave_constant``).  Tables that
      fit one pass (n <= 256), and values whose scores could be
      subnormal or overflow, are scanned whole.
    """
    p = _exponent(p)
    v = g.values.reshape(-1)
    if p == 2.0:
        beta = float(v.mean())
    elif p == math.inf:
        beta = 0.5 * (float(v.max()) + float(v.min()))
    elif p > 1.0:
        beta = _convex_constant(v, p)
    elif p == 1.0:
        # argsort, not np.partition: the p = 1 descent already pages in
        # this kernel, and a second one adds a few hundred KB of resident code
        beta = float(v[np.argsort(v)[(v.size - 1) // 2]])
    else:
        beta = _concave_constant(v, p, g.cell_volume)
    return beta, _lp(np.abs(g.values - beta), g.cell_volume, p)


# Doubles per pass of the best-constant tables, cache-sized.  One buffer
# serves every pass of a call: a fresh 512 KB temporary sits at the
# allocator's mmap threshold, so whether each pass faults in new pages
# would depend on what unrelated earlier calls allocated and freed.
_TABLE = 1 << 16
# The p < 1 search's first cut of the sorted distinct values, and the
# parts each surviving segment is cut into after that.
_SEGMENTS = 16
_SPLIT = 4


def _concave_constant(v: np.ndarray, p: float, cell_volume: float) -> float:
    """The sample value with the least ``sum |v - beta|^p * cell_volume``
    for 0 < p < 1, the first in row-major order on a tie.

    The score of a value is its row of the n x n table: ``|v - beta|^p``
    over ``v`` in row-major order, summed along the row, times
    ``cell_volume``.  The argmin of all n scores is found without the
    whole table:

    * equal values have equal rows, so only the distinct values are
      candidates, each standing for its first row-major index;
    * on a segment ``[lo, hi]`` of the sorted distinct values, the terms
      of the ``v_j`` outside it are concave in ``beta`` (each is
      ``(beta - v_j)^p`` or ``(v_j - beta)^p`` with a positive base), so
      their sum ``O(beta)`` is least at an endpoint, and every score in
      the segment is at least ``min(O(lo), O(hi))``; the terms inside
      are dropped, as they are at least 0;
    * the best score met so far (the lower median's, then the middle
      value of each round's segment of least ``O(lo)``) is an upper
      bound, and a segment is dropped when both ``O(lo)`` and ``O(hi)``
      exceed it by more than the rounding can explain (``O(hi)`` is
      computed only for the segments whose ``O(lo)`` does); the others
      are cut into ``_SPLIT`` parts until only single values are left,
      where ``O`` is the score, bit for bit, and whose scores are
      compared as in the whole table.

    The bound rests on exact arithmetic, so the allowed excess covers
    the computed bound being above its exact value and the computed
    score below its own: ``2 gamma_n`` for the two n-term sums (the
    recursive-summation bound ``gamma_n = n u / (1 - n u)``, Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed. 2002,
    §4.2), and ``(n + 8) eps`` for each term's rounding on both sides
    (half an ulp for the difference, which the power p < 1 does not
    enlarge, and at most 2 ulps for pow: 5 eps for the two sides)
    and for terms that underflow (at most ``n eps`` of a score that is
    a normal double).  That holds while every score is a normal double
    before and after scaling, which the search checks from the least
    gap and the span of the values.  A table that fits one pass
    (n <= 256), and values whose scores could be subnormal or overflow,
    get the plain scan of every row.
    """
    n = v.size
    rows = max(1, _TABLE // max(n, 1))
    table = np.empty((min(rows, n), n))

    def first_least(idx):
        # the first of the ascending row-major indices idx with the least scaled score
        return float(v[idx[int(np.argmin(_row_sums(v, v[idx], p, table) * cell_volume))]])

    if n <= rows:
        return first_least(np.arange(n))
    # argsort, as at p = 1: a second sort kernel costs resident memory
    order = np.argsort(v)
    s = v[order]
    first = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    u = s[first]
    rep = np.minimum.reduceat(order, first)
    if u.size == 1:
        # every score is 0, and the first entry wins
        return float(v[0])
    low = float(np.diff(u).min()) ** p * min(cell_volume, 1.0)
    high = n * float(u[-1] - u[0]) ** p * max(cell_volume, 1.0)
    if not (low >= 2.0 * np.finfo(float).tiny and high <= 0.5 * np.finfo(float).max):
        return first_least(np.sort(rep))
    eps = np.finfo(float).eps
    gamma = 0.5 * n * eps / (1.0 - 0.5 * n * eps)
    limit = 1.0 + 2.0 * gamma + (n + 8) * eps

    def score(k):
        return float(_row_sums(v, u[k : k + 1], p, table)[0])

    best = score(int(np.searchsorted(u, s[(n - 1) // 2])))
    a, b = _split(np.array([0]), np.array([u.size - 1]), _SEGMENTS)
    while True:
        at_lo = _row_sums(v, u[a], p, table, u[a], u[b])
        i = int(np.argmin(at_lo))
        best = min(best, score((a[i] + b[i]) // 2))
        keep = at_lo <= best * limit
        # a single value's O(hi) is its O(lo)
        far = ~keep & (a < b)
        if far.any():
            keep[far] = _row_sums(v, u[b[far]], p, table, u[a[far]], u[b[far]]) <= best * limit
        a, b = a[keep], b[keep]
        if np.all(a == b):
            break
        a, b = _split(a, b, _SPLIT)
    return first_least(np.sort(rep[a]))


def _split(a: np.ndarray, b: np.ndarray, parts: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut each index segment ``[a_i, b_i]`` into ``parts`` nearly equal
    nonempty parts (fewer if it holds fewer indices), in order."""
    cuts = a[:, None] + ((b - a + 1)[:, None] * np.arange(parts + 1)) // parts
    lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel() - 1
    live = lo <= hi
    return lo[live], hi[live]


def _row_sums(v, at, p, table, lo=None, hi=None) -> np.ndarray:
    """``sum_j |v_j - at_i|^p`` for each i, or with segments ``[lo_i,
    hi_i]`` the same sum over the ``v_j`` outside segment i only, one
    table pass of ``table``'s rows at a time, each row summed in ``v``'s
    order."""
    out = np.empty(at.size)
    for start in range(0, at.size, table.shape[0]):
        stop = min(at.size, start + table.shape[0])
        t = table[: stop - start]
        np.subtract(v[None, :], at[start:stop, None], out=t)
        np.abs(t, out=t)
        if lo is not None:
            t[(v >= lo[start:stop, None]) & (v <= hi[start:stop, None])] = 0.0
        t **= p
        out[start:stop] = t.sum(axis=1)
    return out


def _convex_constant(v: np.ndarray, p: float) -> float:
    """Minimizer of ``sum |v - beta|^p`` for 1 < p < inf.

    The derivative ``-p sum sign(v - beta) |v - beta|^(p-1)`` increases
    in beta and changes sign in [min v, max v]; bisection reads its sign
    from the sum taken in units of its largest term, so that no term
    overflows, and stops at a bracket of a few ulps of the data scale,
    where the flat minimum no longer moves the objective.
    """
    lo, hi = float(v.min()), float(v.max())
    tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        d = v - mid
        a = np.abs(d)
        if float((np.sign(d) * (a / a.max()) ** (p - 1.0)).sum()) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PiecewiseConstant:
    """One constant per cell of a congruent subdivision of a box."""

    box: Box
    splits: tuple[int, ...]
    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, float)
        if b.shape != tuple(self.splits):
            raise ValueError("betas shape must equal the per-axis split counts")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "betas", b)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        single = x.ndim == 1
        pts = x[None, :] if single else x
        lo = np.asarray(self.box.lower)
        widths = self.box.size / np.asarray(self.splits)
        idx = np.floor((pts - lo) / widths).astype(int)
        idx = np.clip(idx, 0, np.asarray(self.splits) - 1)
        vals = self.betas[tuple(idx[..., i] for i in range(self.box.dim))]
        return float(vals[0]) if single else vals


def piecewise_constant_approx(
    g: GridFunction, splits, p: float
) -> tuple[PiecewiseConstant, float]:
    """Best-constant fit on each cell of a congruent subdivision.

    ``splits`` (an int or per-axis counts) must divide the grid so that
    every cell owns a whole sub-grid; the total error is the L_p sum
    ``_lp`` of the per-cell errors with unit weights (max for p = inf).
    """
    splits = normalize_grid(splits, g.box.dim)
    for n, m in zip(g.spec, splits):
        if n % m != 0:
            raise ValueError(f"split {m} does not divide the grid axis of {n} points")
    sub = tuple(n // m for n, m in zip(g.spec, splits))
    betas = np.zeros(splits)
    errors = np.zeros(splits)
    for idx, cell_box in _cells(g.box, splits):
        slices = tuple(slice(i * s, (i + 1) * s) for i, s in zip(idx, sub))
        cell = GridFunction(cell_box, g.values[slices])
        beta, err = best_constant(cell, p)
        betas[idx] = beta
        errors[idx] = err
    return PiecewiseConstant(g.box, splits, betas), _lp(errors, 1.0, p)
