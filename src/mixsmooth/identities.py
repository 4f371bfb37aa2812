"""Exact multivariate polynomial identities behind the difference calculus.

Every identity is checked in exact integer arithmetic: the coefficients
are Python integers, or numerators over a common power of 2 where one is
not an integer (the halving witness's 2^-k), and ``fractions.Fraction``
appears only in the returned objects.  No rounding occurs anywhere.

The centrepiece is :func:`unit_decomposition`, which writes the constant 1 as

    1 = sum_{0 < k <= r} a_k x^k  +  sum_{e nonempty} b_e P_e(x),
    P_e(x) = prod_{i in e} (x_i - 1)^{r_i},

with 0 < k <= r meaning 1 <= k_i <= r_i on every axis.  With
y_i = (1 - x_i)^{r_i}, inclusion-exclusion gives
1 = prod_i (1 - y_i) - sum_{u nonempty} (-1)^|u| prod_{i in u} y_i;
expanding 1 - y_i = sum_{j >= 1} (-1)^(j+1) C(r_i, j) x_i^j yields the
closed forms a_k = (-1)^(d+|k|) prod_i C(r_i, k_i) and
b_u = -(-1)^(|u| + sum_{i in u} r_i).  Under the shift-operator
correspondence (x_i^j acting as a shift by j*h_i, and (x_i - 1)^{r_i} as
the order-r_i difference) the identity turns into a reproduction
formula: any function whose mixed differences of order r(e) vanish for
all nonempty e satisfies f(x) = sum a_k f(x + k*h).

:func:`halving_identity` verifies the exact step-doubling identity used
to telescope a difference of order k into one of order k + 1,

    (x - 1)^k = 2^(-k) (x^2 - 1)^k + P(x) (x - 1)^(k+1),

with P of degree k - 1 obtained by synthetic division.  Univariate
polynomials are coefficient lists, lowest degree first.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .domain import (
    Box, _count, _evaluate, _orders, grid_points, nonempty_axis_subsets, normalize_grid,
    restrict_order,
)
from .differences import _fields, _stencil

__all__ = [
    "UnitDecomposition",
    "unit_decomposition",
    "reproduction_residual",
    "reproduction_identity_gap",
    "annihilation_residual",
    "halving_identity",
]


def _power_of_binomial(n: int, c: int) -> list[int]:
    """Coefficients of ``(x + c)^n``, lowest degree first."""
    return [math.comb(n, j) * c ** (n - j) for j in range(n + 1)]


def _poly_mul(p: Sequence, q: Sequence) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


@dataclass(frozen=True)
class UnitDecomposition:
    """Coefficients writing 1 as monomials plus difference polynomials.

    ``a`` maps exponent tuples k (with every k_i >= 1) to rational
    coefficients; ``b`` maps sorted axis-subset tuples to rational
    coefficients.  The defining identity is re-checked exactly at
    construction time by :func:`unit_decomposition`.
    """

    r: tuple[int, ...]
    a: dict[tuple[int, ...], Fraction]
    b: dict[tuple[int, ...], Fraction]


def unit_decomposition(r: Sequence[int]) -> UnitDecomposition:
    """Closed-form decomposition of 1 over monomials and P_e terms.

    ``a`` lists k in lexicographic order and ``b`` the subsets in
    :func:`nonempty_axis_subsets` order.  The identity is verified
    exactly, in Python integers, on the dense coefficient tensor of shape
    ``r + 1`` before the coefficients become ``Fraction``s and the result
    is returned; failure indicates an implementation bug and is raised,
    never ignored.
    """
    r = _orders(r, 1)
    d = len(r)
    a = {
        k: (-1) ** (d + sum(k)) * math.prod(map(math.comb, r, k))
        for k in itertools.product(*(range(1, ri + 1) for ri in r))
    }
    b = {u: -((-1) ** (len(u) + sum(r[i] for i in u))) for u in nonempty_axis_subsets(d)}

    # coefficient of x^k at index k, in Python integers (object arrays never
    # overflow); a fills the block k >= 1 in its own product order, and P_u
    # is the outer product of the (x_i - 1)^{r_i} rows on u and of the
    # constant 1 off u
    total = np.zeros(tuple(ri + 1 for ri in r), dtype=object)
    total[(slice(1, None),) * d] = np.array(list(a.values()), dtype=object).reshape(r)
    for u, c in b.items():
        rows = [
            np.array(_power_of_binomial(ri, -1) if i in u else [1] + [0] * ri, dtype=object)
            for i, ri in enumerate(r)
        ]
        total += c * functools.reduce(np.multiply.outer, rows)
    unit = np.zeros_like(total)
    unit[(0,) * d] = 1
    if not (total == unit).all():
        raise RuntimeError(f"unit decomposition failed exact verification for r={r}")
    return UnitDecomposition(
        r=r, a={k: Fraction(c) for k, c in a.items()}, b={u: Fraction(c) for u, c in b.items()}
    )


def _valid_sample_mask(
    x: np.ndarray, h: np.ndarray, r: tuple[int, ...], box: Box
) -> np.ndarray:
    """Points x whose whole stencil cloud x + j*h, 0 <= j <= r, stays in the box;
    the box is convex and x + j*h is monotone in j, so j = 0 and j = r decide."""
    return box.contains(x) & box.contains(x + np.asarray(r) * h)


def _worst_residual(
    f: Callable,
    decomp: UnitDecomposition,
    b: dict[tuple[int, ...], Fraction],
    box: Box,
    h_list: Sequence[Sequence[float]],
    x_spec,
) -> float:
    """Max over the sampled points x and steps h of
    ``|f(x) - sum a_k f(x + k*h) - sum b_e D_h^{r(e)} f(x)|``, with ``a`` from
    ``decomp`` and difference-side coefficients ``b`` (none for the plain
    residual).  Each step calls f once, on the offsets j these sums read,
    and takes every term from that table of f(x + j*h).  Points whose
    stencil leaves the box are skipped; it is an error for every point to be
    skipped, or for a residual to be non-finite, which ``max`` would hide
    (``max(0.0, nan)`` is 0.0).  Rational coefficients become floats only
    here, at the sampling boundary.
    """
    r = decomp.r
    d = len(r)
    x = grid_points(box, normalize_grid(x_spec, d)).reshape(-1, d)
    a = [(float(c), k) for k, c in decomp.a.items()]
    diffs = [(float(c), _stencil(restrict_order(r, e))) for e, c in b.items()]
    offsets = sorted({(0,) * d, *(k for _, k in a), *(j for _, st in diffs for _, j in st)})
    worst = None
    for h in h_list:
        hv = np.asarray(h, float)
        mask = _valid_sample_mask(x, hv, r, box)
        if not mask.any():
            continue
        pts = x[mask]
        table = dict(zip(offsets, _evaluate(f, pts + np.asarray(offsets)[:, None, :] * hv)))
        zero = np.zeros(len(pts))
        recon = sum((c * table[k] for c, k in a), zero)
        diff_sum = zero
        for c, stencil in diffs:
            diff_sum = diff_sum + c * sum((w * table[j] for w, j in stencil), zero)
        top = float(np.abs(table[(0,) * d] - recon - diff_sum).max())
        if not math.isfinite(top):
            raise ValueError("non-finite residual: f must be finite on every stencil point")
        worst = top if worst is None else max(worst, top)
    if worst is None:
        raise ValueError("every sample point violated the domain for every step")
    return worst


def reproduction_residual(
    f: Callable,
    r: Sequence[int],
    box: Box,
    h_list: Sequence[Sequence[float]],
    x_spec,
) -> float:
    """Max of |f(x) - sum a_k f(x + k*h)| over sampled points and steps.

    Points whose stencil leaves the box are skipped; it is an error for
    every point to be skipped, or for a residual to be non-finite.
    """
    return _worst_residual(f, unit_decomposition(r), {}, box, h_list, x_spec)


def reproduction_identity_gap(
    f: Callable,
    r: Sequence[int],
    box: Box,
    h_list: Sequence[Sequence[float]],
    x_spec,
) -> float:
    """Max of |(f(x) - sum a_k f(x+kh)) - sum b_e D_h^{r(e)} f(x)| over samples.

    This is the pointwise consistency of the reproduction formula with
    its difference-operator restatement; it should be at rounding level
    for any f, polynomial or not.  A non-finite residual raises.
    """
    decomp = unit_decomposition(r)
    return _worst_residual(f, decomp, decomp.b, box, h_list, x_spec)


def annihilation_residual(phi, axes: Iterable[int], h, box: Box, grid) -> float:
    """Max sampled |mixed difference of phi| for the order zeroed off ``axes``.

    ``h`` is one step or a stack of steps, shape ``(n, d)``; the maximum
    runs over every step, from one pass of the difference engine.
    ``phi`` is a tensor polynomial; its degree bounds give the order r,
    so the contract is a residual at rounding level (<= 1e-9 * max|phi|).
    Every axis must be one of phi's (``restrict_order`` checks it).  A step
    whose domain is empty samples nothing; it is an error for every step
    to sample nothing, as for :func:`reproduction_residual`.
    """
    axes = tuple(axes)
    if not axes:
        raise ValueError("axis subset must be nonempty")
    r_e = restrict_order(phi.degrees, axes)
    steps = np.atleast_2d(np.asarray(h, float))
    worst = max(
        (float(np.abs(ch.values).max()) for ch in _fields(phi, r_e, steps, box, grid)),
        default=None,
    )
    if worst is None:
        raise ValueError("every sample point violated the domain for every step")
    return worst


def halving_identity(k: int) -> dict[tuple[int], Fraction]:
    """Exact witness P for ``(x-1)^k = 2^-k (x^2-1)^k + P(x) (x-1)^(k+1)``.

    P is the quotient of ``1 - 2^-k (x+1)^k`` by ``x - 1`` (synthetic
    division), returned as ``{(j,): coefficient}`` for its nonzero
    coefficients in increasing j.  The division and the final identity
    check run on integer numerators over the common denominator 2^k, so
    ``Fraction`` appears only in the result.  A nonzero remainder or a
    failed final identity check is an implementation bug and raises.
    """
    k = _count(k, "k")
    scale = 2**k
    numerator = [-c for c in _power_of_binomial(k, 1)]
    numerator[0] += scale
    quotient = [0] * k
    carry = 0
    for j in range(k, 0, -1):
        carry += numerator[j]
        quotient[j - 1] = carry
    if numerator[0] + carry != 0:
        raise RuntimeError(f"halving identity division left a remainder for k={k}")
    lhs = [scale * c for c in _power_of_binomial(k, -1)] + [0] * k
    square = _poly_mul(_power_of_binomial(k, -1), _power_of_binomial(k, 1))
    rhs = [s + t for s, t in zip(square, _poly_mul(quotient, _power_of_binomial(k + 1, -1)))]
    if lhs != rhs:
        raise RuntimeError(f"halving identity failed exact verification for k={k}")
    return {(j,): Fraction(c, scale) for j, c in enumerate(quotient) if c != 0}
