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

The random entries (``cubic_1d``, ``cubic_2d``, ``trig_rand_2d_a`` and
``trig_rand_2d_b``) are literals: the values their seeded draws gave,
written out, because numpy's random policy (NEP 19) keeps no Generator
stream fixed across releases.  So the corpus is identical in every
process and under every numpy, and importing it loads no ``numpy.random``.
Singular offsets are chosen away from every dyadic grid line used at
desk scale, so midpoint samples never hit a kink exactly.

Evaluation rule: the Holder, spline product and trigonometric entries
compute in place, in the arrays they allocate themselves and never in
their argument, and are bit-identical to their written formulas.  Only
the product's start, a multiplication by exactly 1.0, is dropped;
``** alpha`` stays an operator, so numpy's square-root path at
alpha = 1/2 still applies; every other operation keeps its order, the
``0 +`` start of each trigonometric phase sum included.
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


def _trig_sum(name, terms, description):
    """Sum of ``amp * cos(2 pi <fm, x> + phase)`` over the terms."""
    dim = len(terms[0][1])

    def deriv(s):
        s = tuple(s)

        @_batched
        def g(X):
            out = np.zeros(X.shape[:-1])
            theta, tmp = np.empty_like(out), np.empty_like(out)
            for amp, fm, phase in terms:
                a = amp
                for i in range(dim):
                    a *= (2.0 * math.pi * fm[i]) ** s[i]
                # sum()'s start: 0 + -0.0 is +0.0
                np.add(0, np.multiply(fm[0], X[..., 0], out=theta), out=theta)
                for i in range(1, dim):
                    theta += np.multiply(fm[i], X[..., i], out=tmp)
                theta *= 2.0 * math.pi
                theta += phase
                theta += sum(s) * math.pi / 2.0
                np.cos(theta, out=theta)
                theta *= a
                out += theta
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


# The random entries' coefficients as numpy's default_rng drew them: the
# cubics from seed 20240801, each trig_rand_2d from the seed its
# description names (tests/test_corpus.py redraws them).
_CUBIC_1D = (1.6023018542954852, 0.7800900003043146, -1.277618755163973, -0.4851801800792451)
_CUBIC_2D = (
    (-0.15942132346348278, -0.96820423720596, 0.19260626522368088, -0.45567237879562034),
    (-0.6663678291235396, -0.014168840455155797, -0.19659473530200894, -0.7863113394960325),
    (-0.5027936334384554, -0.009029151513546888, -0.4756989194960066, 0.04578996040100947),
    (0.5946506828222571, -0.2822249100879267, -0.6942822907804168, -0.5388535851823988),
)
_TRIG_RAND_2D = {
    8571: (
        (-0.5853149255889997, (0.0, 1.0), 4.873517008944148),
        (-0.456233673266812, (0.0, 2.0), 3.118643165137726),
        (0.16973806114015322, (1.0, 0.0), 4.271974179167249),
        (-0.016663652773754385, (1.0, 1.0), 1.1025542190716315),
        (-0.24000520667304867, (1.0, 2.0), 5.89214152837123),
        (0.4219085563482356, (2.0, 0.0), 1.6773789609709175),
        (-0.16186857344135536, (2.0, 1.0), 5.480807423406128),
        (-0.07259349115094106, (2.0, 2.0), 4.617135333230596),
    ),
    9038: (
        (-0.22759947137807626, (0.0, 1.0), 0.3236471720110789),
        (0.16437813476799737, (0.0, 2.0), 1.77486734455964),
        (-0.17566374321589656, (1.0, 0.0), 3.488307150790815),
        (-0.030301962429603636, (1.0, 1.0), 4.185088824042552),
        (-0.1724569688835771, (1.0, 2.0), 4.708790379779554),
        (-0.3136133347358344, (2.0, 0.0), 4.4243116825802815),
        (-0.22432451129689068, (2.0, 1.0), 5.746075984349471),
        (0.15039812253156504, (2.0, 2.0), 5.725699896738197),
    ),
}


def _build_corpus() -> dict[str, CorpusFunction]:
    entries: list[CorpusFunction] = []

    # --- d = 1 ---
    entries.append(_poly_entry("const_1d", [0.7], 1))
    entries.append(_poly_entry("linear_1d", [0.0, 1.0], 1, "f(x) = x"))
    entries.append(_poly_entry("square_1d", [0.0, 0.0, 1.0], 1, "f(x) = x^2"))
    entries.append(_poly_entry("cubic_1d", _CUBIC_1D, 1, "random cubic"))
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
    entries.append(_poly_entry("cubic_2d", _CUBIC_2D, 2))
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
            _trig_sum(name, _TRIG_RAND_2D[seed], f"random trigonometric polynomial, seed {seed}")
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
