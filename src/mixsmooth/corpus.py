"""Shipped test corpus: named functions spanning smoothness regimes.

Entries are vectorized callables on ``(..., d)`` point arrays, tagged by
smoothness class:

* ``member-of-Pr``    tensor polynomials (the degree bounds are stored,
                      so membership in a given space is decidable);
* ``analytic``        entire functions with closed-form mixed
                      derivatives of every order;
* ``finitely-smooth`` piecewise-polynomial splines with a kink in some
                      derivative;
* ``holder-singular`` products of |x_i - c_i|^alpha with fractional
                      alpha.

Random entries (polynomial and trigonometric) are drawn once at import
time from fixed seeds, so the corpus is identical in every process.
Singular offsets are chosen away from every dyadic grid line used at
desk scale, so midpoint samples never hit a kink exactly.

Evaluation rule: the Holder and spline product entries compute in
place, in the arrays they allocate themselves and never in their
argument, and are bit-identical to their written formulas.  Only the
product's start, a multiplication by exactly 1.0, is dropped; ``** alpha``
stays an operator, so numpy's square-root path at alpha = 1/2 still
applies; every other operation keeps its order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polyapprox import TensorPolynomial

__all__ = ["CorpusFunction", "corpus_entries", "get_function"]

_TAGS = ("member-of-Pr", "analytic", "finitely-smooth", "holder-singular")


@dataclass(frozen=True)
class CorpusFunction:
    """A named test function; ``derivative``, if set, maps a multi-order to the
    callable of that mixed derivative (the factory the Taylor functions take)."""

    name: str
    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    tag: str
    derivative: Callable[[tuple[int, ...]], Callable] | None = None
    poly_space: tuple[int, ...] | None = None
    description: str = ""

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown smoothness tag {self.tag!r}")

    def __call__(self, x) -> np.ndarray:
        return self.f(np.asarray(x, float))

    @property
    def has_derivatives(self) -> bool:
        return self.derivative is not None


def _batched(kernel):
    """``kernel`` on ``(..., d)`` points, a single point ``(d,)`` as a batch
    of one: each coordinate column it takes is then an array, which the
    kernel's own temporaries may be written into."""

    def f(X):
        X = np.asarray(X, float)
        return kernel(X[None])[0] if X.ndim == 1 else kernel(X)

    return f


def _poly_entry(name, coeffs, dim, description=""):
    phi = TensorPolynomial(np.asarray(coeffs, float))
    return CorpusFunction(
        name=name,
        dim=dim,
        f=phi,
        tag="member-of-Pr",
        derivative=lambda s, _phi=phi: _phi.derivative(s),
        poly_space=phi.degrees,
        description=description or f"tensor polynomial, degree bounds {phi.degrees}",
    )


def _exp_sum(dim):
    def deriv(_s):
        return lambda X: np.exp(np.asarray(X, float).sum(axis=-1))

    return CorpusFunction(
        name=f"exp_sum_{dim}d",
        dim=dim,
        f=deriv(None),
        tag="analytic",
        derivative=deriv,
        description="exp of the coordinate sum; every mixed derivative is itself",
    )


def _sin_prod(dim):
    w = 2.0 * math.pi

    def deriv(s):
        s = tuple(s)

        def g(X):
            X = np.asarray(X, float)
            out = np.ones(X.shape[:-1])
            for i in range(dim):
                out = out * w ** s[i] * np.sin(w * X[..., i] + s[i] * math.pi / 2.0)
            return out

        return g

    return CorpusFunction(
        name=f"sin_prod_{dim}d",
        dim=dim,
        f=deriv((0,) * dim),
        tag="analytic",
        derivative=deriv,
        description="product of sin(2 pi x_i)",
    )


def _trig_random(seed, dim):
    """Seeded terms ``(amplitude, frequency vector, phase)`` over every
    nonzero frequency vector with entries up to 2."""
    rng = np.random.default_rng(seed)
    terms = []
    for fm in np.ndindex(*((3,) * dim)):
        if all(v == 0 for v in fm):
            continue
        amp = float(rng.standard_normal()) / (1.0 + sum(fm))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        terms.append((amp, tuple(float(v) for v in fm), phase))
    return terms


def _trig_sum(name, terms, description):
    """Sum of ``amp * cos(2 pi <fm, x> + phase)`` over the terms."""
    dim = len(terms[0][1])

    def deriv(s):
        s = tuple(s)

        def g(X):
            X = np.asarray(X, float)
            out = np.zeros(X.shape[:-1])
            for amp, fm, phase in terms:
                a = amp
                for i in range(dim):
                    a *= (2.0 * math.pi * fm[i]) ** s[i]
                theta = 2.0 * math.pi * sum(fm[i] * X[..., i] for i in range(dim))
                out = out + a * np.cos(theta + phase + sum(s) * math.pi / 2.0)
            return out

        return g

    return CorpusFunction(
        name=name,
        dim=dim,
        f=deriv((0,) * dim),
        tag="analytic",
        derivative=deriv,
        description=description,
    )


def _holder(name, dim, alpha, centers):
    centers = tuple(float(c) for c in centers)

    @_batched
    def f(X):
        out = None
        for i in range(dim):
            t = X[..., i] - centers[i]
            np.abs(t, out=t)
            t **= alpha
            if out is None:
                out = t
            else:
                out *= t
        return out

    return CorpusFunction(
        name=name,
        dim=dim,
        f=f,
        tag="holder-singular",
        description=f"product of |x_i - c_i|^{alpha} with centers {centers}",
    )


def _quad_kink(u, c):
    """Piecewise quadratic (u-c)|u-c|: one continuous derivative, kinked second."""
    s = u - c
    s *= np.abs(s)
    return s


def _spline_prod(dim):
    @_batched
    def f(X):
        out = _quad_kink(X[..., 0], 0.5)
        for i in range(1, dim):
            out *= _quad_kink(X[..., i], 0.5)
        return out

    return CorpusFunction(
        name=f"spline_prod_{dim}d",
        dim=dim,
        f=f,
        tag="finitely-smooth",
        description="product of piecewise-quadratic C^1 kinks (u-1/2)|u-1/2|",
    )


def _build_corpus() -> dict[str, CorpusFunction]:
    entries: list[CorpusFunction] = []
    rng = np.random.default_rng(20240801)

    # --- d = 1 ---
    entries.append(_poly_entry("const_1d", [0.7], 1))
    entries.append(_poly_entry("linear_1d", [0.0, 1.0], 1, "f(x) = x"))
    entries.append(_poly_entry("square_1d", [0.0, 0.0, 1.0], 1, "f(x) = x^2"))
    entries.append(
        _poly_entry("cubic_1d", rng.standard_normal(4) * 0.8, 1, "random cubic")
    )
    entries.append(_exp_sum(1))
    entries.append(_sin_prod(1))
    entries.append(_holder("holder_half_1d", 1, 0.5, (0.37,)))
    entries.append(
        CorpusFunction(
            name="abs_kink_1d",
            dim=1,
            f=lambda X: np.abs(np.asarray(X, float)[..., 0] - 0.5),
            tag="holder-singular",
            description="|x - 1/2|",
        )
    )
    entries.append(_spline_prod(1))

    # --- d = 2 ---
    entries.append(_poly_entry("const_2d", [[0.7]], 2))
    # (2x - 1)(1 - y) + 1/2 in monomial coefficients
    entries.append(_poly_entry("bilinear_2d", [[-0.5, 1.0], [2.0, -2.0]], 2))
    entries.append(_poly_entry("cubic_2d", rng.standard_normal((4, 4)) * 0.5, 2))
    entries.append(_exp_sum(2))
    entries.append(_sin_prod(2))
    entries.append(
        _trig_sum(
            "cos_ripple_2d",
            [(1.0, (1.0, 2.0), 0.3)],
            "plane cosine wave with frequency vector (1.0, 2.0)",
        )
    )
    for name, seed in (("trig_rand_2d_a", 8571), ("trig_rand_2d_b", 9038)):
        entries.append(
            _trig_sum(name, _trig_random(seed, 2), f"random trigonometric polynomial, seed {seed}")
        )
    entries.append(_holder("holder_half_2d", 2, 0.5, (0.37, 0.61)))
    entries.append(_holder("holder_one_2d", 2, 1.0, (0.37, 0.61)))
    entries.append(_holder("holder_threehalf_2d", 2, 1.5, (0.37, 0.61)))
    entries.append(_spline_prod(2))
    entries.append(
        CorpusFunction(
            name="spline_taper_2d",
            dim=2,
            f=lambda X: _quad_kink(np.asarray(X, float)[..., 0], 0.5)
            * (1.0 + 0.5 * np.asarray(X, float)[..., 1]),
            tag="finitely-smooth",
            description="piecewise-quadratic kink in x tapered linearly in y",
        )
    )
    entries.append(
        CorpusFunction(
            name="runge_bump_2d",
            dim=2,
            f=lambda X: 1.0
            / (
                1.0
                + 4.0 * (np.asarray(X, float)[..., 0] - 0.5) ** 2
                + 4.0 * (np.asarray(X, float)[..., 1] - 0.5) ** 2
            ),
            tag="analytic",
            description="rational bump centered in the unit square",
        )
    )

    # --- d = 3 (small presence for the identity and annihilation suites) ---
    entries.append(_exp_sum(3))

    out = {e.name: e for e in entries}
    if len(out) != len(entries):
        raise RuntimeError("duplicate corpus names")
    return out


_CORPUS = _build_corpus()


def corpus_entries(dim: int | None = None, tag: str | None = None) -> list[CorpusFunction]:
    """Corpus entries sorted by name, optionally filtered by dimension and tag."""
    tag_norm = tag.lower() if tag else None
    out = []
    for name in sorted(_CORPUS):
        e = _CORPUS[name]
        if dim is not None and e.dim != dim:
            continue
        if tag_norm is not None and e.tag.lower() != tag_norm:
            continue
        out.append(e)
    return out


def get_function(name: str) -> CorpusFunction:
    try:
        return _CORPUS[name]
    except KeyError:
        raise KeyError(
            f"unknown corpus function {name!r}; choose from {sorted(_CORPUS)}"
        ) from None
