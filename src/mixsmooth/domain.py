"""Axis-aligned boxes, tensor midpoint grids, and L_p quasi-norms.

Geometric substrate for the difference operators and the polynomial
fitting code: a :class:`Box` is a d-dimensional axis-aligned
parallelepiped, a :class:`GridFunction` holds samples of a function at
the midpoints of a uniform tensor grid over a box, and
:func:`lp_quasinorm` evaluates the discrete L_p quasi-norm by composite
midpoint quadrature for any exponent 0 < p <= inf.

All values are plain 64-bit floats.  Every operation here is a pure
function of its inputs; grids are enumerated row-major along the axis
order, so reductions are reproducible bit for bit.

It also owns the rules other modules share: ``_orders``, ``_count``,
``_axis`` and ``_exponent`` check every order vector, count, axis and
exponent, ``_lp`` forms every L_p sum and root (the moduli's too),
``_shrunk`` shrinks every domain, ``_midpoints`` and ``_cells`` place
every midpoint and subdivision, ``_evaluate`` calls every user function,
and ``_bits`` keys every memo of f-independent geometry.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

# Points per call of f, at most, in sample_on_grid and in the step sweeps
# of differences (a sweep passes a step whose grid is larger one stencil
# offset per call).  The sweeps pack their chunks by field points: up to
# the cap where they read the box's grid, and up to
# min(cap, 4 * cap // stencil) where f takes the steps' clouds, so that a
# chunk's cloud is at most four caps (see differences._Plan).  With that
# rule, on the benchmark's sweep-fine workload (2-core Xeon host, seed 71,
# three runs each) 2^12, 2^13 and 2^14 took a median wall_s of 1.42,
# 1.04 and 1.11 s at a peak RSS of 45.0, 45.1 and 47.0 MB; on
# sweep-coarse (two runs each) 0.62, 0.57 and 0.59 s.
_CHUNK_POINTS = 1 << 13

__all__ = [
    "Box",
    "GridFunction",
    "shrink_domain",
    "sample_on_grid",
    "lp_quasinorm",
    "nonempty_axis_subsets",
    "restrict_order",
    "normalize_grid",
    "grid_points",
]


@dataclass(frozen=True)
class Box:
    """Axis-aligned d-parallelepiped ``[lower_1, upper_1] x ... x [lower_d, upper_d]``.

    Every side must have strictly positive length.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(a) for a in self.lower)
        hi = tuple(float(b) for b in self.upper)
        if len(lo) == 0 or len(lo) != len(hi):
            raise ValueError("lower and upper must be nonempty and of equal length")
        for a, b in zip(lo, hi):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError("box bounds must be finite")
            if not a < b:
                raise ValueError(f"degenerate box side [{a}, {b}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def size(self) -> np.ndarray:
        """Vector of side lengths ``upper - lower``."""
        return np.asarray(self.upper, float) - np.asarray(self.lower, float)

    @property
    def volume(self) -> float:
        return float(np.prod(self.size))

    @classmethod
    def unit(cls, dim: int) -> "Box":
        return cls((0.0,) * dim, (1.0,) * dim)

    @classmethod
    def cube(cls, a: float, b: float, dim: int) -> "Box":
        return cls((float(a),) * dim, (float(b),) * dim)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Componentwise membership test for points of shape ``(..., dim)``,
        with a slack of 1e-12 times the side's length on every side."""
        pts = np.asarray(points, float)
        slack = 1e-12 * self.size
        lo = np.asarray(self.lower) - slack
        hi = np.asarray(self.upper) + slack
        return np.all((pts >= lo) & (pts <= hi), axis=-1)


def _shrunk(box: Box, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per shift s (a difference's ``r * h``) of the stack ``shifts``, shape
    ``(..., dim)``, the bounds ``lo, hi`` of the points x with x and x + s in
    ``box``: ``[lower + max(0, -s), upper - max(0, s)]``, empty unless hi > lo."""
    lo = np.asarray(box.lower) + np.maximum(0.0, -shifts)
    hi = np.asarray(box.upper) - np.maximum(0.0, shifts)
    return lo, hi


def shrink_domain(box: Box, shift: Sequence[float]) -> Box | None:
    """Sub-box of points x with both x and x + shift inside ``box``.

    Returns None when some axis interval becomes empty or degenerates to
    measure zero (empty is a value here, not an error).
    """
    y = np.asarray(shift, float)
    if y.shape != (box.dim,):
        raise ValueError("shift length must match box dimension")
    lo, hi = _shrunk(box, y)
    if np.any(hi <= lo):
        return None
    return Box(tuple(lo), tuple(hi))


def normalize_grid(spec, dim: int) -> tuple[int, ...]:
    """A grid shape from an int or per-axis sequence of whole numbers >= 1."""
    shape = _orders((spec,) * dim if np.isscalar(spec) else spec, 1)
    if len(shape) != dim:
        raise ValueError(f"grid spec has {len(shape)} axes, expected {dim}")
    return shape


def _midpoints(a: float, b: float, n: int) -> np.ndarray:
    """The midpoints ``a + (k + 0.5) * ((b - a) / n)`` of n equal cells of [a, b]."""
    return a + (np.arange(n) + 0.5) * ((b - a) / n)


def _cells(box: Box, splits) -> Iterator[tuple[tuple[int, ...], Box]]:
    """``(index, cell box)`` for each cell of the congruent subdivision of
    ``box`` into ``splits`` (an int or per-axis counts), row-major."""
    splits = normalize_grid(splits, box.dim)
    lo = np.asarray(box.lower)
    widths = box.size / np.asarray(splits)
    for idx in np.ndindex(splits):
        cell_lo = lo + np.asarray(idx) * widths
        yield idx, Box(tuple(cell_lo), tuple(cell_lo + widths))


def grid_points(box: Box, spec) -> np.ndarray:
    """All grid midpoints, shape ``spec + (dim,)``, row-major by axis order."""
    shape = normalize_grid(spec, box.dim)
    axes = [_midpoints(a, b, n) for a, b, n in zip(box.lower, box.upper, shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function at the midpoints of a uniform tensor grid.

    ``values`` has one entry per grid cell and exactly the shape of the
    grid spec.  The array is frozen after construction.
    """

    box: Box
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, float)
        if vals.ndim != self.box.dim:
            raise ValueError(
                f"values have {vals.ndim} axes but the box has dimension {self.box.dim}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must all be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def spec(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def cell_widths(self) -> np.ndarray:
        return self.box.size / np.asarray(self.spec)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_widths))

    def midpoints(self) -> np.ndarray:
        return grid_points(self.box, self.spec)


def _evaluate(f: Callable[[np.ndarray], np.ndarray], X: np.ndarray) -> np.ndarray:
    """``f(X)`` as floats, once it has the shape ``X.shape[:-1]`` of one value
    per point, else ValueError: the one call of a user-supplied function or
    derivative.  Callers check finiteness, once per grid or chunk."""
    values = np.asarray(f(X), float)
    if values.shape != X.shape[:-1]:
        raise ValueError(f"function returned shape {values.shape}, expected {X.shape[:-1]}")
    return values


def sample_on_grid(f: Callable[[np.ndarray], np.ndarray], box: Box, spec) -> GridFunction:
    """Evaluate ``f`` at every grid midpoint of ``box``.

    ``f`` must accept an array of shape ``(..., dim)`` and return the
    matching ``(...)`` array of values.  Non-finite values are rejected
    (by :class:`GridFunction`).
    The points are a ``(dim, points)`` coordinate-major buffer in
    row-major grid order, and ``f`` gets transposed ``(points, dim)``
    views of it, not C-contiguous, of at most ``_CHUNK_POINTS`` points
    each, whose coordinate planes ``X[..., i]`` are contiguous.
    """
    shape = normalize_grid(spec, box.dim)
    cloud = np.empty((box.dim, *shape))
    for i, (a, b, n) in enumerate(zip(box.lower, box.upper, shape)):
        # axis i of grid_points, broadcast along the other axes
        cloud[i] = _midpoints(a, b, n).reshape((-1,) + (1,) * (box.dim - 1 - i))
    cloud = cloud.reshape(box.dim, -1)
    vals = np.empty(cloud.shape[1])
    for j in range(0, vals.size, _CHUNK_POINTS):
        vals[j : j + _CHUNK_POINTS] = _evaluate(f, cloud[:, j : j + _CHUNK_POINTS].T)
    return GridFunction(box, vals.reshape(shape))


def lp_quasinorm(g: GridFunction | None, p: float) -> float:
    """Discrete L_p quasi-norm by composite midpoint quadrature:
    ``(sum |v|^p * cell_volume)^(1/p)``, or ``max |v|`` for ``p = inf``,
    by the rule of ``_lp`` (a sum that is not a normal double is taken in
    units of ``max |v|``).  An empty domain (None) counts as 0.
    Exponents p <= 0 are rejected.
    """
    p = _exponent(p)
    if g is None:
        return 0.0
    return _lp(np.abs(g.values), g.cell_volume, p)


def _lp(a: np.ndarray, cell_volume: float, p: float) -> float:
    """``(sum a^p * cell_volume)^(1/p)`` of the magnitudes ``a`` (the root by
    ``np.power``, a square root at p = 2), ``max a`` at p = inf or when it
    is inf, 0 for no ``a``: the one L_p sum and root.  A sum that is not a
    normal double (0, subnormal or inf) while some ``a`` is nonzero is
    taken in units of ``max a``."""
    if p == math.inf:
        return float(a.max(initial=0.0))
    with np.errstate(over="ignore"):
        total = float((a**p).sum() * cell_volume)
    if not sys.float_info.min <= total < math.inf and (top := float(a.max(initial=0.0))) > 0.0:
        unit = float(((a / top) ** p).sum() * cell_volume) if top < math.inf else 1.0
        return top * float(np.power(unit, 1.0 / p))
    return float(np.power(total, 1.0 / p))


def nonempty_axis_subsets(dim: int) -> list[tuple[int, ...]]:
    """All 2^d - 1 nonempty subsets of axes {0, ..., d-1}.

    Fixed deterministic order: by cardinality, then lexicographic.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    out: list[tuple[int, ...]] = []
    for k in range(1, dim + 1):
        out.extend(itertools.combinations(range(dim), k))
    return out


def _orders(r: Sequence[int], least: int = 0) -> tuple[int, ...]:
    """The order, degree or count vector ``r`` as ints, once every entry
    is a whole number (an integral float such as 2.0 counts) of at least
    ``least``; a fractional, NaN or infinite entry raises ValueError."""
    r = tuple(r)
    if not all(float(v).is_integer() and v >= least for v in r):
        raise ValueError(f"expected whole numbers >= {least}, got {r}")
    return tuple(int(v) for v in r)


def _count(value, name: str, least: int = 1) -> int:
    """The count ``value`` as an int by the rule of ``_orders``, else a ValueError naming it."""
    try:
        (n,) = _orders((value,), least)
    except ValueError:
        raise ValueError(f"{name} must be a whole number >= {least}, got {value!r}") from None
    return n


def _axis(value, dim: int) -> int:
    """The axis ``value`` of a ``dim``-dimensional box as an int by the rule of
    ``_count``, else a ValueError naming it: 2.0 counts as 2, and 1.5, -1 and
    ``dim`` raise."""
    i = _count(value, "axis", 0)
    if i >= dim:
        raise ValueError(f"axis must be below {dim}, got {value!r}")
    return i


def _exponent(p) -> float:
    """The quasi-norm exponent ``p`` as a float once it is positive (inf
    counts), else a ValueError naming it; NaN and p <= 0 raise."""
    if not p > 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    return float(p)


def _bits(values: Sequence[float]) -> bytes:
    """The exact bits of a float vector, as a memo key: unlike the floats
    themselves, it tells -0.0 from 0.0."""
    return np.asarray(values, float).tobytes()


def restrict_order(r: Sequence[int], axes: Sequence[int]) -> tuple[int, ...]:
    """Zero out the multi-index ``r`` off the given axis subset; every axis
    must be one of ``r``'s (``_axis``)."""
    r = _orders(r)
    keep = {_axis(i, len(r)) for i in axes}
    return tuple(ri if i in keep else 0 for i, ri in enumerate(r))
