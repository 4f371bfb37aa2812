"""Exact multivariate polynomial identities behind the difference calculus.

Everything in this module runs in arbitrary-precision rational
arithmetic (``fractions.Fraction``); no rounding occurs anywhere.  The
centrepiece is :func:`unit_decomposition`, which writes the constant 1
as

    1 = sum_{0 < k <= r} a_k x^k  +  sum_{e nonempty} b_e P_e(x),
    P_e(x) = prod_{i in e} (x_i - 1)^{r_i},

with 0 < k <= r meaning 1 <= k_i <= r_i on every axis.  Under the
shift-operator correspondence (x_i^j acting as a shift by j*h_i, and
(x_i - 1)^{r_i} as the order-r_i difference) the identity turns into a
reproduction formula: any function whose mixed differences of order
r(e) vanish for all nonempty e satisfies f(x) = sum a_k f(x + k*h).

:func:`halving_identity` verifies the exact step-doubling identity used
to telescope a difference of order k into one of order k + 1,

    (x - 1)^k = 2^(-k) (x^2 - 1)^k + P(x) (x - 1)^(k+1),

with P of degree k - 1 obtained by exact polynomial division.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .domain import Box, grid_points, normalize_grid, restrict_order
from .differences import difference_field, mixed_difference

__all__ = [
    "RationalMultiPoly",
    "UnitDecomposition",
    "expand_Pe",
    "expand_Ae",
    "unit_decomposition",
    "reproduction_residual",
    "reproduction_identity_gap",
    "annihilation_residual",
    "halving_identity",
]


class RationalMultiPoly:
    """Multivariate polynomial with exact rational coefficients.

    Stored as a map from exponent tuples to nonzero ``Fraction``
    coefficients (canonical form: zero coefficients are never kept).
    Addition, multiplication, and equality are exact.
    """

    __slots__ = ("dim", "_coeffs")

    def __init__(self, dim: int, coeffs: Mapping[tuple[int, ...], Fraction] | None = None):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)
        clean: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                key = tuple(int(v) for v in k)
                if len(key) != self.dim or any(v < 0 for v in key):
                    raise ValueError(f"bad exponent {k} for dimension {dim}")
                c = Fraction(c)
                if c != 0:
                    clean[key] = clean.get(key, Fraction(0)) + c
                    if clean[key] == 0:
                        del clean[key]
        self._coeffs = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "RationalMultiPoly":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> "RationalMultiPoly":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def one(cls, dim: int) -> "RationalMultiPoly":
        return cls.constant(dim, 1)

    @classmethod
    def variable(cls, index: int, dim: int) -> "RationalMultiPoly":
        e = tuple(1 if i == index else 0 for i in range(dim))
        return cls(dim, {e: Fraction(1)})

    @classmethod
    def monomial(cls, exponent: Sequence[int], coeff=1) -> "RationalMultiPoly":
        exponent = tuple(int(v) for v in exponent)
        return cls(len(exponent), {exponent: Fraction(coeff)})

    # -- inspection --------------------------------------------------

    def items(self):
        return sorted(self._coeffs.items())

    def coefficient(self, exponent: Sequence[int]) -> Fraction:
        return self._coeffs.get(tuple(int(v) for v in exponent), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degrees(self) -> tuple[int, ...]:
        """Per-axis maximal exponent (all zeros for the zero polynomial)."""
        if not self._coeffs:
            return (0,) * self.dim
        return tuple(max(k[i] for k in self._coeffs) for i in range(self.dim))

    def __len__(self) -> int:
        return len(self._coeffs)

    # -- arithmetic --------------------------------------------------

    def _coerce(self, other) -> "RationalMultiPoly":
        if isinstance(other, RationalMultiPoly):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        return RationalMultiPoly.constant(self.dim, other)

    def __add__(self, other) -> "RationalMultiPoly":
        other = self._coerce(other)
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return RationalMultiPoly(self.dim, out)

    __radd__ = __add__

    def __neg__(self) -> "RationalMultiPoly":
        return RationalMultiPoly(self.dim, {k: -c for k, c in self._coeffs.items()})

    def __sub__(self, other) -> "RationalMultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RationalMultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "RationalMultiPoly":
        if not isinstance(other, RationalMultiPoly):
            c = Fraction(other)
            return RationalMultiPoly(
                self.dim, {k: v * c for k, v in self._coeffs.items()}
            )
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return RationalMultiPoly(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalMultiPoly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = RationalMultiPoly.one(self.dim)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RationalMultiPoly.constant(self.dim, other)
        if not isinstance(other, RationalMultiPoly):
            return NotImplemented
        return self.dim == other.dim and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self._coeffs.items()))))

    def evaluate(self, point: Sequence) -> Fraction:
        """Exact evaluation at a point of Fractions or integers."""
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for k, c in self._coeffs.items():
            term = c
            for xi, ki in zip(pt, k):
                term *= xi**ki
            total += term
        return total

    def __repr__(self) -> str:
        if not self._coeffs:
            return "RationalMultiPoly(0)"
        parts = [f"{c}*x^{k}" for k, c in self.items()]
        return "RationalMultiPoly(" + " + ".join(parts) + ")"


def univariate_divmod(
    num: RationalMultiPoly, den: RationalMultiPoly
) -> tuple[RationalMultiPoly, RationalMultiPoly]:
    """Exact division with remainder for univariate rational polynomials."""
    if num.dim != 1 or den.dim != 1:
        raise ValueError("exact division is implemented for univariate polynomials")
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    dmax = den.degrees()[0]
    lead = den.coefficient((dmax,))
    quo: dict[tuple[int, ...], Fraction] = {}
    rem = num
    while not rem.is_zero and rem.degrees()[0] >= dmax:
        k = rem.degrees()[0]
        factor = rem.coefficient((k,)) / lead
        quo[(k - dmax,)] = quo.get((k - dmax,), Fraction(0)) + factor
        rem = rem - RationalMultiPoly.monomial((k - dmax,), factor) * den
    return RationalMultiPoly(1, quo), rem


def expand_Pe(r: Sequence[int], axes: Iterable[int]) -> RationalMultiPoly:
    """Exact expansion of ``prod_{i in e} (x_i - 1)^{r_i}``."""
    r = tuple(int(v) for v in r)
    e = sorted(int(i) for i in axes)
    if not e:
        raise ValueError("axis subset must be nonempty")
    if any(r[i] < 1 for i in e):
        raise ValueError("orders on the subset must satisfy r_i >= 1")
    d = len(r)
    out = RationalMultiPoly.one(d)
    for i in e:
        factor = RationalMultiPoly.variable(i, d) - 1
        out = out * factor ** r[i]
    return out


def expand_Ae(r: Sequence[int], axes: Iterable[int]) -> RationalMultiPoly:
    """Exact expansion of ``prod_{i in e} [(x_i - 1)^{r_i} - (-1)^{r_i}]``."""
    r = tuple(int(v) for v in r)
    e = sorted(int(i) for i in axes)
    if not e:
        raise ValueError("axis subset must be nonempty")
    if any(r[i] < 1 for i in e):
        raise ValueError("orders on the subset must satisfy r_i >= 1")
    d = len(r)
    out = RationalMultiPoly.one(d)
    for i in e:
        factor = (RationalMultiPoly.variable(i, d) - 1) ** r[i] - Fraction((-1) ** r[i])
        out = out * factor
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

    def as_polynomial(self) -> RationalMultiPoly:
        d = len(self.r)
        total = RationalMultiPoly.zero(d)
        for k, c in self.a.items():
            total = total + RationalMultiPoly.monomial(k, c)
        for e, c in self.b.items():
            total = total + expand_Pe(self.r, e) * c
        return total


def unit_decomposition(r: Sequence[int]) -> UnitDecomposition:
    """Constructive decomposition of 1 over monomials and P_e terms.

    Follows the telescoping construction: expand the full product
    ``P_[d]`` through the divisible-by-x factors, re-express the cross
    terms through P_u over subsets u, and normalize by the sign
    ``(-1)^d prod (-1)^{r_i}``.  The result is verified exactly before
    it is returned; failure indicates an implementation bug and is
    raised, never ignored.
    """
    r = tuple(int(v) for v in r)
    d = len(r)
    if any(v < 1 for v in r):
        raise ValueError("unit decomposition requires every r_i >= 1")
    full = tuple(range(d))
    sign = Fraction((-1) ** (d + sum(r)))

    # Monomial part: the full cross product with each factor's constant
    # term removed is divisible by every variable, so its monomials all
    # have exponents 1 <= k <= r.
    a_poly = expand_Ae(r, full)
    a = {k: sign * c for k, c in a_poly.items()}
    for k in a:
        if any(v < 1 for v in k) or any(v > ri for v, ri in zip(k, r)):
            raise RuntimeError(f"monomial part fell outside 0 < k <= r: {k}")

    # Cross terms: each proper nonempty subset e carries the factor
    # prod_{i outside e} (-1)^{r_i}; re-expanding its A_e over P_u gives
    # every factor omitted inside e the coefficient -(-1)^{r_i}.
    b: dict[tuple[int, ...], Fraction] = {}
    for e in itertools.chain.from_iterable(
        itertools.combinations(full, size) for size in range(1, d)
    ):
        outer = Fraction(1)
        for i in full:
            if i not in e:
                outer *= (-1) ** r[i]
        for usize in range(1, len(e) + 1):
            for u in itertools.combinations(e, usize):
                coeff = outer
                for i in e:
                    if i not in u:
                        coeff *= -((-1) ** r[i])
                b[u] = b.get(u, Fraction(0)) + sign * coeff
    b[full] = b.get(full, Fraction(0)) - sign
    b = {e: c for e, c in b.items() if c != 0}

    decomp = UnitDecomposition(r=r, a=a, b=b)
    if decomp.as_polynomial() != 1:
        raise RuntimeError(f"unit decomposition failed exact verification for r={r}")
    return decomp


def _valid_sample_mask(
    x: np.ndarray, h: np.ndarray, r: tuple[int, ...], box: Box
) -> np.ndarray:
    """Points x whose whole stencil cloud x + j*h, 0 <= j <= r, stays in the box."""
    mask = np.ones(x.shape[0], dtype=bool)
    for offset in itertools.product(*(range(ri + 1) for ri in r)):
        mask &= box.contains(x + np.asarray(offset) * h)
    return mask


def _reproduction_terms(
    f: Callable,
    decomp: UnitDecomposition,
    box: Box,
    h_list: Sequence[Sequence[float]],
    x_spec,
):
    """Yield per step (sample points, step, reproduction residual values)."""
    r = decomp.r
    d = len(r)
    x = grid_points(box, normalize_grid(x_spec, d)).reshape(-1, d)
    a_float = {k: float(c) for k, c in decomp.a.items()}
    sampled = False
    for h in h_list:
        hv = np.asarray(h, float)
        mask = _valid_sample_mask(x, hv, r, box)
        if not mask.any():
            continue
        pts = x[mask]
        sampled = True
        fx = np.asarray(f(pts), float)
        recon = np.zeros_like(fx)
        for k, c in a_float.items():
            recon += c * np.asarray(f(pts + np.asarray(k) * hv), float)
        yield pts, hv, fx - recon
    if not sampled:
        raise ValueError("every sample point violated the domain for every step")


def reproduction_residual(
    f: Callable,
    r: Sequence[int],
    box: Box,
    h_list: Sequence[Sequence[float]],
    x_spec,
) -> float:
    """Max of |f(x) - sum a_k f(x + k*h)| over sampled points and steps.

    Points whose stencil leaves the box are skipped; it is an error for
    every point to be skipped.  Rational coefficients are converted to
    floats only here, at the sampling boundary.
    """
    decomp = unit_decomposition(r)
    worst = 0.0
    for _, _, residual in _reproduction_terms(f, decomp, box, h_list, x_spec):
        worst = max(worst, float(np.abs(residual).max()))
    return worst


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
    for any f, polynomial or not.
    """
    decomp = unit_decomposition(r)
    b_float = {e: float(c) for e, c in decomp.b.items()}
    worst = 0.0
    for pts, hv, residual in _reproduction_terms(f, decomp, box, h_list, x_spec):
        diff_sum = np.zeros_like(residual)
        for e, c in b_float.items():
            diff_sum += c * mixed_difference(f, restrict_order(decomp.r, e), hv, pts)
        worst = max(worst, float(np.abs(residual - diff_sum).max()))
    return worst


def annihilation_residual(phi, axes: Iterable[int], h, box: Box, grid) -> float:
    """Max sampled |mixed difference of phi| for the order zeroed off ``axes``.

    ``phi`` is a tensor polynomial; its degree bounds give the order r,
    so the contract is a residual at rounding level (<= 1e-9 * max|phi|).
    """
    e = tuple(sorted(int(i) for i in axes))
    if not e:
        raise ValueError("axis subset must be nonempty")
    r_e = restrict_order(phi.degrees, e)
    field = difference_field(phi, r_e, h, box, grid)
    if field is None:
        return 0.0
    return float(np.abs(field.values).max())


def halving_identity(k: int) -> RationalMultiPoly:
    """Exact witness P for ``(x-1)^k = 2^-k (x^2-1)^k + P(x) (x-1)^(k+1)``.

    P is computed by exact division of ``1 - 2^-k (x+1)^k`` by
    ``(x - 1)``; a nonzero remainder or a failed final identity check
    is an implementation bug and raises.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    x = RationalMultiPoly.variable(0, 1)
    numerator = 1 - (x + 1) ** k * Fraction(1, 2**k)
    quotient, remainder = univariate_divmod(numerator, x - 1)
    if not remainder.is_zero:
        raise RuntimeError(f"halving identity division left a remainder for k={k}")
    lhs = (x - 1) ** k
    rhs = (x * x - 1) ** k * Fraction(1, 2**k) + quotient * (x - 1) ** (k + 1)
    if lhs != rhs:
        raise RuntimeError(f"halving identity failed exact verification for k={k}")
    return quotient
