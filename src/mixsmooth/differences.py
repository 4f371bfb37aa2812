"""Mixed difference operators and moduli of smoothness.

Implements the tensor-product finite difference of multi-order r with
step vector h, and four moduli built on it:

* ``modulus_sup``   -- sup over steps |h_i| <= t_i of the L_p quasi-norm
  of the difference field over the shrunken domain (omega).
* ``modulus_mean``  -- the p-mean counterpart, averaging |difference|^p
  over the step box instead of taking a supremum (w).
* ``total_modulus_sup`` / ``total_modulus_mean`` -- sums of the above
  over every nonempty axis subset, with the order zeroed off the
  subset (Omega and W).

The supremum over steps is approximated by a finite symmetric grid and
is therefore a *lower* estimate of the true supremum; callers that put
a modulus on the right-hand side of an inequality should inflate it by
the measured refinement gap (see the verifier's tolerance policy).

Every difference field comes from one engine, ``_fields``.  It takes a
whole list of step vectors, orders them by grid size and then by grid
shape, and groups them into chunks.  Equal shapes then lie side by side,
and ``_fields`` hands each chunk's runs of equal-shape steps over in the
chunk itself (``_Chunk.runs``): it fills the chunk's values run by run,
and ``_step_norms`` reduces each run as the rows of one matrix.  A
step's cloud is every stencil offset ``j*h`` of every point of its
shrunken midpoint grid.  A grid is a tensor product: the axis-i
coordinate of a cloud point, ``lo_i + (k_i + 0.5)*width_i + j_i*h_i``,
depends only on that step's axis-i values.  The engine gets the values
of ``f`` at those points in one of two ways, and picks one per call:

* **The lattice path.**  Take it when two things hold.  First, every
  cloud coordinate, computed as the cloud computes it, is bit-equal to a
  midpoint ``lower_i + (m + 0.5)*(size_i/n_i)`` of the box's own
  ``density`` grid (as ``grid_points`` computes it).  Second, that grid
  has fewer points than the cloud, and the cloud takes more than one
  call of ``f``.  This is the case for sup sweeps whose steps are whole
  numbers of cells, as on dyadic boxes.  The check runs per axis, once
  per distinct step value.  ``f`` is then called once on that grid,
  through ``sample_on_grid``.  A chunk holds at most ``_CHUNK_POINTS``
  field points.  Each (offset, step) block of a chunk is a block of that
  grid, and each run reads its blocks from a strided view of the grid
  values in one gather.
* **The cloud path.**  Otherwise a chunk holds at most
  ``min(_CHUNK_POINTS, 4 * _CHUNK_POINTS // len(stencil))`` field
  points, so its cloud is at most four caps.  The cloud is stored
  coordinate by coordinate as a ``(d, offsets, points)`` buffer, and
  ``f`` is called on it a few stencil offsets at a time: as many as fit
  ``_CHUNK_POINTS`` points, and one offset of a larger field, whose
  buffer holds just the offsets of one call.  ``f`` gets the transposed
  view of its slice, of shape ``(offsets, points, d)``, in which every
  coordinate plane ``X[..., i]`` is contiguous.  For each run in a
  chunk, plane i is filled by adding the per-offset shift to the
  per-step midpoint once for every ``(offset, step, k_i)`` and
  broadcasting that small table over the other axes, with no per-point
  index arithmetic.

The choice rests only on the input, and on the rule below that a value
of ``f`` does not depend on the call it is computed in; so both paths
give the same bits.  Each point, stencil sum and per-step quadrature sum
is computed in the same order as a step-by-step loop, with operations
that give the same bits (``_stencil_sum``), so the values are
bit-identical to evaluating one step at a time, whatever the chunks;
``difference_field`` is the one-step case.

Every sweep is one pipeline: a node rule places the step nodes on each
axis, ``_step_product`` takes their tensor grid, and ``_fields`` and
``_step_norms`` give every step's L_p norm for every exponent by
``domain._lp``'s rule.  A sweep reads one or more step sets (one per
step bound, or per step count) from one engine pass over them all
(``_norm_blocks``).  The sup sweep takes the maximum of each set's
norms, and the mean sweep their ``_lp`` with weight ``1 / len(set)``:
no sweep takes a root of its own.  That the p-mean modulus at p = inf is
the sup modulus is decided in ``mean_modulus_sweep``, and again by the two
callers that skip the mean sweep at p = inf: the verifier's equivalence
check (``_equivalence_pairs`` takes the coarse sup sweep) and ``compute``
in ``cli.py`` (which waives the step box a mean sweep needs).

Every order vector passes ``domain._orders`` and ``h_samples`` its
``_count``, which own that rule: 2.0 counts as 2, and 1.5 raises.

What a sweep derives from its geometry alone, never from ``f`` or p, is
built once per process and kept in three bounded memos
(``functools.lru_cache``, least recently used out), each keyed by the
exact bits of its inputs (``domain._bits``), so -0.0 and 0.0 are two
keys.  Every array in them is read-only, and no value of ``f`` is kept:

* ``_plan``, keyed by ``(r, steps, box bounds, density)``, holds at most
  ``_PLAN_MEMO`` plans of ``_fields``: the live steps in grid order,
  their shrunken grids and cell volumes, the runs, chunk bounds and
  offsets per call of ``f``, and the lattice bases or the cloud's step
  and cell-width tables;
* ``_node_steps``, keyed by ``(rule, r, t, h_samples)``, holds at most
  ``_STEPS_MEMO`` step lists of the sup and mean node rules, with the
  nested sup sweep's coarse mask;
* ``_coarse_grid_empty_of``, keyed by ``(r, t, box bounds, h_samples)``,
  holds at most ``_STEPS_MEMO`` of ``_coarse_grid_empty``'s flags, which
  tell the verifier that a summed term reads 0 unsampled.

A pass of a ``perfbench`` workload keeps at most 68 plans, 121 step lists
and 8 flags, a ``verify --suite all`` run 61, 103 and 4, so bounds of 256
evict nothing there.

The contract on ``f``, here and in every sweep: it receives a float
array of shape ``(..., d)`` that need not be C-contiguous and returns
one value per point, of shape ``(...)`` (``domain._evaluate`` checks it).
A value depends only on its own point: not on the memory layout of the
argument, and not on the other points of the call.  ``f`` must not
keep its argument past the call: the engine reuses its memory.  ``f``
must be defined and finite at every midpoint of the box's ``density``
grid, which the lattice path evaluates even where no step's cloud
reaches.

A sup sweep with an odd number ``2m - 1`` of step samples contains the
sweep with ``m`` samples: ``linspace(-t, t, m)`` equals
``linspace(-t, t, 2m - 1)[::2]`` bit for bit; ``sup_modulus_sweep`` with
``nested=True`` returns that coarse supremum too, off the even-indexed nodes.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .domain import (
    _CHUNK_POINTS,
    Box,
    GridFunction,
    _bits,
    _count,
    _evaluate,
    _exponent,
    _lp,
    _midpoints,
    _orders,
    _shrunk,
    nonempty_axis_subsets,
    normalize_grid,
    restrict_order,
    sample_on_grid,
)

# Bounds of the memos of f-independent geometry (see the module docstring).
_PLAN_MEMO = 256
_STEPS_MEMO = 256

__all__ = [
    "ModulusRequest",
    "mixed_difference",
    "difference_field",
    "modulus_sup",
    "modulus_mean",
    "total_modulus_sup",
    "total_modulus_mean",
    "sup_modulus_sweep",
    "mean_modulus_sweep",
    "total_sup_terms",
    "total_mean_terms",
    "lower_whitney_constant",
]


def _stencil(r: Sequence[int]) -> list[tuple[float, tuple[int, ...]]]:
    """Weights and offsets of the tensor-product difference of order r.

    The univariate order-m stencil is ``(-1)^(m-j) C(m,j)`` at offset j;
    the mixed stencil is the outer product over axes.  Order 0 on an
    axis leaves that axis untouched (identity).
    """
    per_axis = [
        [((-1.0) ** (ri - j)) * math.comb(ri, j) for j in range(ri + 1)] for ri in r
    ]
    out = []
    for combo in itertools.product(*(range(ri + 1) for ri in r)):
        w = 1.0
        for i, j in enumerate(combo):
            w *= per_axis[i][j]
        out.append((w, combo))
    return out


def _stencil_sum(
    values: np.ndarray, weights: Sequence[float], columns, scratch: np.ndarray
) -> None:
    """``values += w * column`` for each weight and column in turn, bit for
    bit, without a temporary per weight: a weight 1 or -1 adds or subtracts
    the column itself (``1 * c`` is ``c``, and ``x + (-c)`` is ``x - c``),
    and any other weight is multiplied into ``scratch``, of the shape of
    ``values``."""
    for w, column in zip(weights, columns):
        if w == 1.0:
            values += column
        elif w == -1.0:
            values -= column
        else:
            values += np.multiply(w, column, out=scratch)


def mixed_difference(f: Callable, r: Sequence[int], h: Sequence[float], x) -> np.ndarray:
    """Mixed difference of order ``r`` with step ``h`` evaluated at ``x``.

    ``x`` may be a single point of shape ``(d,)`` or a batch
    ``(..., d)``; all shifted points ``x + j*h`` must lie in the domain
    of ``f``.  Order zero on every axis reduces to ``f(x)``.
    """
    r = _orders(r)
    hv = np.asarray(h, float)
    x = np.asarray(x, float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    acc = np.zeros(pts.shape[:-1])
    for w, offset in _stencil(r):
        acc = acc + w * _evaluate(f, pts + np.asarray(offset) * hv)
    return float(acc[0]) if single else acc


@dataclass(frozen=True)
class _Chunk:
    """Difference fields of some steps, stored back to back.

    Step ``steps[k]`` owns ``values[bounds[k]:bounds[k+1]]``, its grid
    over the box ``[lo[k], hi[k]]`` of shape ``shape[k]`` in row-major
    order, with cell volume ``cell_volume[k]``.  ``runs`` covers the
    chunk in order: for each ``(u, v, start, stop)`` in it, steps ``u``
    to ``v - 1`` have grids of one size (of one shape, as ``_fields``
    builds them) and own ``values[start:stop]``.
    """

    steps: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    runs: tuple[tuple[int, int, int, int], ...]
    lo: np.ndarray
    hi: np.ndarray
    shape: np.ndarray
    cell_volume: np.ndarray


def _lattice_bases(
    r: Sequence[int],
    offsets: np.ndarray,
    steps: np.ndarray,
    lo: np.ndarray,
    width: np.ndarray,
    shape: np.ndarray,
    box: Box,
    density: np.ndarray,
) -> np.ndarray | None:
    """Where every stencil offset of every step reads the box's midpoint grid.

    The grid is the one ``grid_points(box, density)`` returns.  The
    result, shape ``(offsets, steps)``, is the row-major index in it of
    the first point of each (offset, step) cloud block, which is then a
    block of the grid of that step's shape.  It is None unless every
    cloud coordinate, computed as ``_fields`` computes it, is bit-equal
    to the grid midpoint it lands on.  A coordinate depends on one axis
    of the step only, so each axis is checked once per distinct step
    value.  An axis whose steps are all 0 needs no check: there the
    cloud's ``lo``, ``width`` and midpoints are grid_points' own.
    """
    index = offsets.astype(np.int64)
    bases = np.zeros((len(offsets), len(steps)), np.int64)
    stride = 1
    for i in reversed(range(box.dim)):
        n = int(density[i])
        x = steps[:, i]
        if x.any():
            # the distinct step values ascending, a step with each, each step's index in h
            h, first, inverse = np.unique(x, return_index=True, return_inverse=True)
            half = np.arange(0.5, n)  # k + 0.5
            grid = _midpoints(box.lower[i], box.upper[i], n)  # grid_points' axis i
            # (offset, distinct step, k): the cloud's o*h + (lo + (k + 0.5) * width)
            coord = np.arange(r[i] + 1.0)[:, None, None] * h[:, None] + (
                lo[:, i][first][:, None] + half * width[:, i][first][:, None]
            )
            start = np.searchsorted(grid, coord[:, :, 0])
            on = coord == grid.take(start[:, :, None] + np.arange(n), mode="clip")
            size = shape[:, i][first]
            on |= half > size[:, None]  # k past the step's grid
            if not (on.all() and (start + size).max() <= n):
                return None
            bases += (start * stride)[index[:, i, None], inverse]
        stride *= n
    return bases


def _blocks(lattice: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """Strided view of the blocks of shape ``grid`` of the C-contiguous
    ``lattice``, indexed by the row-major index of their first point.

    A first point too near the end of a row gives a view that wraps
    into the next row; callers read only the blocks they have checked.
    """
    reach = sum((g - 1) * s for g, s in zip(grid, lattice.strides)) // lattice.itemsize
    return np.ndarray(
        (lattice.size - reach, *grid), float, lattice, 0, (lattice.itemsize, *lattice.strides)
    )


def _frozen(*arrays: np.ndarray | None) -> None:
    """Make memoized arrays read-only, so that no caller can change a memo."""
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


@dataclass(frozen=True)
class _Plan:
    """Everything ``_fields`` derives from ``(r, steps, box, density)``
    before it calls ``f``; every array in it is read-only.

    ``weights`` are the stencil weights, offset by offset.  The live steps
    ``live`` (rows of ``steps``) are in grid order, with their domains
    ``[lo, hi]``, grid shapes and cell volumes.  Each chunk is ``(a, b,
    bounds, runs, grids)``: live steps ``a`` to ``b - 1``, as in
    :class:`_Chunk`, and the grid shape of each run.  ``fills`` holds,
    chunk by chunk, ``(per_call, per_fill)``: the stencil offsets per call
    of ``f`` and per fill of the buffer.

    A chunk takes the next steps in grid order while their fields fit
    its room, and at least one step.  The room is ``_CHUNK_POINTS`` field
    points on the lattice path, where the calls of ``f`` do not follow
    the chunks, and ``min(_CHUNK_POINTS, 4 * _CHUNK_POINTS //
    len(stencil))`` on the cloud path.  There ``f`` takes as many offsets
    per call as fit ``_CHUNK_POINTS`` points, and at least one, and the
    buffer holds the coordinates of the whole cloud when it is at most
    four caps, else those of one call (a single step's larger field).
    On the lattice path the buffer holds every offset's values.  Every
    chunk shares one buffer of ``buffer`` floats, and one scratch of
    ``scratch`` floats for :func:`_stencil_sum`, so that no chunk
    allocates fresh pages.

    On the lattice path ``bases`` is :func:`_lattice_bases`' table; on
    the cloud path it is None, and the cloud is built from the live
    steps' values ``h``, their cell widths ``width`` and the stencil
    ``offsets``.
    """

    weights: tuple[float, ...]
    live: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    shape: np.ndarray
    cell_volume: np.ndarray
    chunks: tuple[tuple[int, int, np.ndarray, tuple, tuple], ...]
    fills: tuple[tuple[int, int], ...]
    buffer: int
    scratch: int
    bases: np.ndarray | None
    h: np.ndarray | None
    width: np.ndarray | None
    offsets: np.ndarray | None


@functools.lru_cache(maxsize=_PLAN_MEMO)
def _plan(r: tuple, steps_shape: tuple, steps_bits: bytes, box_bits: bytes, density: tuple) -> _Plan:
    """The :class:`_Plan` of ``_fields``, memoized by the exact bits of the
    steps and of the box's bounds (lower then upper).  A step is live when
    its domain, the box shrunk by ``r * h`` (``domain._shrunk``), is not empty."""
    steps = np.frombuffer(steps_bits).reshape(steps_shape)
    lower, upper = np.frombuffer(box_bits).reshape(2, -1)
    box = Box(tuple(lower), tuple(upper))
    dim = box.dim
    if len(r) != dim or steps.ndim != 2 or steps.shape[1] != dim:
        raise ValueError("order and steps must match the box dimension")
    if not np.all(np.isfinite(steps)):
        raise ValueError("steps must be finite")
    density = np.asarray(density)
    stencil = _stencil(r)
    offsets = np.array([o for _, o in stencil], float).reshape(len(stencil), dim)
    with np.errstate(over="ignore"):  # a shift r h that overflows empties the domain
        lo, hi = _shrunk(box, np.asarray(r) * steps)
    live = np.flatnonzero(np.all(hi > lo, axis=1))
    size = hi[live] - lo[live]
    shape = np.maximum(1, np.ceil(density * (size / box.size) - 1e-9)).astype(np.int64)
    npts = np.prod(shape, axis=1)
    # Smallest grid first; among equal sizes, equal shapes side by side
    # form the runs that fill a chunk and that _step_norms reduces.
    order = np.lexsort((*shape.T[::-1], npts))
    live, shape = live[order], shape[order]
    lo, hi, steps = lo[live], hi[live], steps[live]
    width = (hi - lo) / shape
    cum = np.concatenate(([0], np.cumsum(npts[order])))
    offset_of = cum.tolist()
    new_run = np.ones(live.size, bool)
    new_run[1:] = np.any(shape[1:] != shape[:-1], axis=1)
    run_starts = np.flatnonzero(new_run).tolist()
    run_grids = [tuple(g) for g in shape[run_starts].tolist()]
    # The grid pays when it has fewer points than the cloud and the cloud
    # takes more than one call of f; for a cloud of one call, the check
    # cost about what the grid saved when it ran on every call.
    bases = None
    n_offsets = len(stencil)
    cloud_points = n_offsets * offset_of[-1]
    if math.prod(density.tolist()) < cloud_points and cloud_points > _CHUNK_POINTS:
        bases = _lattice_bases(r, offsets, steps, lo, width, shape, box, density)
    # greedy packing by field points (see _Plan)
    room = _CHUNK_POINTS
    if bases is None:
        room = min(room, 4 * _CHUNK_POINTS // n_offsets)
    starts = [0]
    while starts[-1] < live.size:
        a = starts[-1]
        starts.append(max(a + 1, bisect.bisect_right(offset_of, offset_of[a] + room) - 1))
    chunks, fills, buffer, largest = [], [], 0, 0
    for a, b in zip(starts, starts[1:]):
        first = bisect.bisect_right(run_starts, a) - 1
        last = bisect.bisect_left(run_starts, b)
        edges = [a, *run_starts[first + 1 : last], b]
        # (u, v, start, stop) of each run, counted from the chunk's start
        runs = tuple(
            (u - a, v - a, offset_of[u] - offset_of[a], offset_of[v] - offset_of[a])
            for u, v in zip(edges, edges[1:])
        )
        bounds = cum[a : b + 1] - cum[a]
        _frozen(bounds)
        n = offset_of[b] - offset_of[a]
        per_call = per_fill = n_offsets
        if bases is None:
            per_call = max(1, _CHUNK_POINTS // n)
            if n_offsets * n > 4 * _CHUNK_POINTS:
                per_fill = per_call
        chunks.append((a, b, bounds, runs, tuple(run_grids[first:last])))
        fills.append((per_call, per_fill))
        buffer = max(buffer, per_fill * n * (dim if bases is None else 1))
        largest = max(largest, n)
    weights = tuple(w for w, _ in stencil)
    scratch = 0 if all(abs(w) == 1.0 for w in weights) else largest
    cell_volume = np.prod(width, axis=1)
    cloud = (steps, width, offsets) if bases is None else (None, None, None)
    _frozen(live, lo, hi, shape, cell_volume, bases, *cloud)
    return _Plan(
        weights, live, lo, hi, shape, cell_volume, tuple(chunks), tuple(fills), buffer, scratch,
        bases, *cloud,
    )


def _fields(
    f: Callable, r: Sequence[int], steps: np.ndarray, box: Box, density
) -> Iterator[_Chunk]:
    """Mixed differences of order ``r`` for every row of ``steps``.

    Each step's domain is ``box`` shrunk by the total shift ``r*h``; a
    step whose domain is empty appears in no chunk.  The midpoint grid
    on it keeps the per-axis resolution density of ``density`` (points
    proportional to the surviving side length, at least one per axis).
    Steps are ordered by ``(number of points, shape)``, smallest grid
    first, and grouped in that order into chunks of at most
    ``_CHUNK_POINTS`` field points on the lattice path, and at most
    ``min(_CHUNK_POINTS, 4 * _CHUNK_POINTS // len(stencil))`` on the
    cloud path.  The order puts equal shapes side by side.  This function
    owns the runs they form in each chunk: it fills the chunk run by run
    and hands the runs over in :attr:`_Chunk.runs`, from which
    :func:`_step_norms` reduces them.  All of that is the memoized
    :func:`_plan`; only the values come from ``f``.

    When every cloud point is bit-equal to a midpoint of the box's
    ``density`` grid, that grid has fewer points than the cloud, and the
    cloud takes more than one call, ``f`` is called on the grid only
    (:func:`sample_on_grid`) and each run in a chunk reads its
    ``(offset, step)`` values as blocks of it, in one gather
    (:func:`_blocks`).  Otherwise ``f`` is called on each chunk's cloud a
    few stencil offsets at a time, as many as fit ``_CHUNK_POINTS``
    points, and one offset of a larger field.  The chunk's cloud (a
    larger field's, call by call) is then a ``(d, offsets, points)``
    buffer, and ``f`` gets the ``(offsets, points, d)`` transposed view of
    its slice, not C-contiguous, whose coordinate planes ``X[..., i]``
    are.  Each run in a chunk fills its part of plane i by
    broadcasting the table ``shift + midpoint`` of its ``(offset, step,
    k_i)`` triples, the one add each point coordinate takes.  The
    stencil sum is :func:`_stencil_sum`.  A chunk with a value that is not
    finite raises ``ValueError``; one sum of the chunk's values settles
    it, unless that sum is not finite, which a large finite field can
    make it.  A NaN or infinite step is rejected, not swept.
    """
    dim = box.dim
    steps = np.asarray(steps, float)
    box_bits = _bits(box.lower + box.upper)
    plan = _plan(_orders(r), steps.shape, steps.tobytes(), box_bits, normalize_grid(density, dim))
    weights = plan.weights
    if plan.bases is not None:
        lattice = sample_on_grid(f, box, density).values
    new_axes = (None,) * dim
    buffer, scratch = np.empty(plan.buffer), np.empty(plan.scratch)
    for (a, b, bounds, runs, grids), (per_call, per_fill) in zip(plan.chunks, plan.fills):
        n_pts = int(bounds[-1])
        values = np.zeros(n_pts)
        if plan.bases is not None:
            evals = buffer[: len(weights) * n_pts].reshape(len(weights), n_pts)
            for grid, (u, v, start, stop) in zip(grids, runs):
                # a reshaped basic slice is a view: the block values land in evals
                run = evals[:, start:stop].reshape(len(weights), v - u, *grid)
                run[...] = _blocks(lattice, grid)[plan.bases[:, a + u : a + v]]
            _stencil_sum(values, weights, evals, scratch[:n_pts])
        else:
            # The chunk's midpoints lo + (k + 0.5) * width per (step, axis, k) and shifts
            # offset * h per (offset, step, axis); a run adds its rows of both into one
            # table whose axis i, unit axes added, broadcasts over its block of plane i.
            half = np.arange(max(map(max, grids))) + 0.5
            mid = plan.lo[a:b, :, None] + half * plan.width[a:b, :, None]
            move = plan.offsets[:, None, :] * plan.h[a:b]
            for j in range(0, len(weights), per_fill):
                js = slice(j, j + per_fill)
                cloud = buffer[: dim * len(weights[js]) * n_pts].reshape(dim, -1, n_pts)
                for grid, (u, v, start, stop) in zip(grids, runs):
                    # a reshaped basic slice is a view: the writes land in the cloud
                    run = cloud[:, :, start:stop].reshape(*cloud.shape[:2], v - u, *grid)
                    table = move[js, u:v, :, None] + mid[u:v, :, : max(grid)]
                    for i in range(dim):
                        run[i] = table[(..., i, *new_axes[:i], slice(grid[i]), *new_axes[i + 1 :])]
                for k in range(0, cloud.shape[1], per_call):
                    # each coordinate plane of this slice is contiguous
                    evals = _evaluate(f, cloud[:, k : k + per_call].transpose(1, 2, 0))
                    _stencil_sum(values, weights[j + k : j + k + per_call], evals, scratch[:n_pts])
        # a finite sum has finite terms; a sum that overflows may not
        with np.errstate(over="ignore", invalid="ignore"):
            total = values.sum()
        if not math.isfinite(total) and not np.isfinite(values).all():
            raise ValueError("grid values must all be finite")
        yield _Chunk(
            steps=plan.live[a:b],
            values=values,
            bounds=bounds,
            runs=runs,
            lo=plan.lo[a:b],
            hi=plan.hi[a:b],
            shape=plan.shape[a:b],
            cell_volume=plan.cell_volume[a:b],
        )


def _step_norms(chunks: Iterable[_Chunk], n_steps: int, ps: Sequence[float]) -> np.ndarray:
    """Per exponent and step: ``domain._lp`` of the step's difference field,
    bit for bit; 0 for a step whose domain is empty.

    Each of a chunk's runs is summed as the rows of one matrix, which
    numpy sums exactly as ``_lp`` sums each step on its own
    (``np.add.reduceat`` does not: it adds the first element last), and
    rooted by ``np.power``.  A chunk whose powers or sums underflow or
    overflow, as the IEEE flags say, takes ``_lp`` step by step.  Besides
    a field of zeros, only an exact subnormal sum raises no flag: it is
    rooted as it stands, within rounding of ``_lp``'s units of ``max |D|``.
    """
    out = np.zeros((len(ps), n_steps))
    for ch in chunks:
        a = np.abs(ch.values)
        for j, p in enumerate(ps):
            if p == math.inf:
                out[j, ch.steps] = np.maximum.reduceat(a, ch.bounds[:-1])
                continue
            sums = np.empty(ch.steps.size)
            try:
                with np.errstate(under="raise", over="raise"):
                    x = a if p == 1.0 else a**p
                    for u, v, start, stop in ch.runs:
                        sums[u:v] = x[start:stop].reshape(v - u, -1).sum(axis=1)
                    sums *= ch.cell_volume
                out[j, ch.steps] = np.power(sums, 1.0 / p)
            except FloatingPointError:
                for k, (lo, hi) in enumerate(zip(ch.bounds[:-1], ch.bounds[1:])):
                    out[j, ch.steps[k]] = _lp(a[lo:hi], ch.cell_volume[k], p)
    return out


def _step_product(axis_nodes: Sequence[np.ndarray]) -> np.ndarray:
    """Every step of a tensor node grid, shape ``(n, d)``, in
    ``itertools.product`` order."""
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def difference_field(
    f: Callable,
    r: Sequence[int],
    h: Sequence[float],
    box: Box,
    density,
) -> GridFunction | None:
    """Sample the mixed difference on a midpoint grid over the shrunken box.

    The domain is ``box`` shrunk by the total shift ``r*h``; None is
    returned when it is empty.  The fresh grid keeps the per-axis
    resolution density of ``density`` (points proportional to the
    surviving side length, at least one per axis).
    """
    steps = np.asarray(h, float).reshape(1, -1)
    for ch in _fields(f, r, steps, box, density):
        sub = Box(tuple(ch.lo[0]), tuple(ch.hi[0]))
        return GridFunction(sub, ch.values.reshape(tuple(ch.shape[0])))
    return None


def _check_sweep_args(
    r: Sequence[int], t: Sequence[float], box: Box, h_samples: int, p_values: Iterable[float]
) -> tuple[tuple[int, ...], tuple[float, ...], int, list[float]]:
    """``(r, t, h_samples, ps)`` as ints, floats, an int and floats, once they
    pass every sweep's checks: per axis of ``box`` one whole order >= 0 and
    one bound >= 0 with ``2 t_i`` finite; a whole h_samples >= 2; every p > 0."""
    r = _orders(r)
    t = tuple(float(v) for v in t)
    h_samples = _count(h_samples, "h_samples", 2)
    ps = [_exponent(p) for p in p_values]
    if len(r) != box.dim or len(t) != box.dim:
        raise ValueError("r and t must match the box dimension")
    # NaN fails the first comparison; a bound whose step box 2 t overflows, the second
    if not all(0 <= 2.0 * v < math.inf for v in t):
        raise ValueError("step bounds must be non-negative, with 2 t finite")
    return r, t, h_samples, ps


@dataclass(frozen=True)
class ModulusRequest:
    """Parameters of one modulus evaluation.

    ``r`` is the difference multi-order, ``t`` the per-axis step bound,
    ``p`` the quasi-norm exponent, ``h_samples`` the number of step
    samples per active axis, and ``density`` the per-axis value-grid
    resolution on the full box.
    """

    r: tuple[int, ...]
    t: tuple[float, ...]
    p: float
    box: Box
    h_samples: int = 9
    density: tuple[int, ...] | int = 32

    def __post_init__(self):
        checked = _check_sweep_args(self.r, self.t, self.box, self.h_samples, [self.p])
        for name, value in zip(("r", "t", "h_samples"), checked):
            object.__setattr__(self, name, value)


def _sup_axis_nodes(ri: int, ti: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Step candidates on one axis for the sup modulus.

    Inactive axes (ri == 0) contribute the single step 0.  Active axes
    use a symmetric uniform grid including both endpoints; the exact
    zero step is dropped there because the difference vanishes
    identically.  The second array marks the nodes at even positions of
    the grid, which for odd m are the nodes of the grid with (m+1)/2
    samples.
    """
    if ri == 0:
        return np.zeros(1), np.ones(1, bool)
    nodes = np.linspace(-ti, ti, m)
    keep = nodes != 0.0
    return nodes[keep], (np.arange(m) % 2 == 0)[keep]


def _coarse_grid_empty(r: Sequence[int], t: Sequence[float], box: Box, h_samples: int) -> bool:
    """True when the sweep of some subset of the active axes of ``r`` has no
    live step of the sup rule with ``h_samples`` nodes (a nested sweep's
    coarse grid), so a summed term reads 0 unsampled.  A step is live only
    when each of its one-axis parts is, so the one-axis subsets decide: does
    no node h of some active axis i leave the shift ``r_i h`` room?"""
    return _coarse_grid_empty_of(tuple(r), _bits(t), _bits(box.lower + box.upper), h_samples)


@functools.lru_cache(maxsize=_STEPS_MEMO)
def _coarse_grid_empty_of(r: tuple, t_bits: bytes, box_bits: bytes, h_samples: int) -> bool:
    """:func:`_coarse_grid_empty`, memoized by the exact bits of t and of the
    box's bounds (lower then upper)."""
    lower, upper = np.frombuffer(box_bits).reshape(2, -1)
    box = Box(tuple(lower), tuple(upper))
    for i, (ri, ti) in enumerate(zip(r, np.frombuffer(t_bits).tolist())):
        if ri == 0:
            continue
        nodes = _sup_axis_nodes(ri, ti, h_samples)[0]
        lo, hi = _shrunk(box, np.outer(ri * nodes, np.eye(box.dim)[i]))
        if not np.all(hi > lo, axis=1).any():
            return True
    return False


def _mean_axis_nodes(ri: int, ti: float, m: int) -> np.ndarray:
    """Step nodes on one axis for the mean modulus: the midpoints of m
    equal cells of ``[-t, t]`` on an active axis, the single step 0 on
    an inactive one."""
    if ri == 0:
        return np.zeros(1)
    return _midpoints(-ti, ti, m)


@functools.lru_cache(maxsize=_STEPS_MEMO)
def _node_steps(
    mean: bool, r: tuple[int, ...], t_bits: bytes, m: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """The steps of a sweep's node rule (the mean rule, else the sup rule)
    in ``_step_product`` order, and for the sup rule the mask of the steps
    of its nested coarse sweep; memoized by the exact bits of t.  Both
    arrays are read-only."""
    t = np.frombuffer(t_bits).tolist()
    if mean:
        steps = _step_product([_mean_axis_nodes(ri, ti, m) for ri, ti in zip(r, t)])
        coarse = None
    else:
        axes = [_sup_axis_nodes(ri, ti, m) for ri, ti in zip(r, t)]
        steps = _step_product([nodes for nodes, _ in axes])
        coarse = _step_product([even for _, even in axes]).all(axis=1)
    _frozen(steps, coarse)
    return steps, coarse


def _norm_blocks(f: Callable, r, step_sets: Sequence[np.ndarray], box: Box, density, ps) -> list:
    """Per step set, its block of ``_step_norms`` from one ``_fields`` pass over
    all the sets, bit-equal to a pass over it alone (no norm reads another step).
    A single set goes through as it is: no copy, no slicing."""
    steps = np.concatenate(step_sets) if len(step_sets) > 1 else step_sets[0]
    norms = _step_norms(_fields(f, r, steps, box, density), len(steps), ps)
    if len(step_sets) == 1:
        return [norms]
    cuts = [0, *itertools.accumulate(map(len, step_sets))]
    return [norms[:, a:b] for a, b in zip(cuts, cuts[1:])]


def _sup_sweeps(f: Callable, r, ts, box: Box, *, density, h_samples, ps, nested=False) -> list:
    """:func:`sup_modulus_sweep` at each step bound of ``ts``, all from one
    engine pass: per bound one ``{p: sup}``, or with ``nested`` one ``(sup,
    coarse)`` pair, each sup the maximum over that bound's own steps."""
    r, t, h_samples, ps = _check_sweep_args(r, ts[0], box, h_samples, ps)
    ts = [t, *(_check_sweep_args(r, bound, box, h_samples, ps)[1] for bound in ts[1:])]
    if nested and h_samples % 2 == 0:
        raise ValueError("a nested coarse sweep needs an odd h_samples")
    sets = [_node_steps(False, r, _bits(t), h_samples) for t in ts]
    out = []
    for (_, coarse), norms in zip(sets, _norm_blocks(f, r, [s for s, _ in sets], box, density, ps)):
        masks = (slice(None), coarse) if nested else (slice(None),)
        sups = tuple({p: float(col[m].max(initial=0.0)) for p, col in zip(ps, norms)} for m in masks)
        out.append(sups if nested else sups[0])
    return out


def _mean_sweeps(f: Callable, r, t, box: Box, *, density, counts: Sequence[int], ps) -> list[dict]:
    """:func:`mean_modulus_sweep` at each ``h_samples`` of ``counts``, the
    finite exponents of all of them from one engine pass: per count one
    ``{p: mean}``, each mean the ``_lp`` of that count's own steps."""
    r, t, first, ps = _check_sweep_args(r, t, box, counts[0], ps)
    counts = [first, *(_count(m, "h_samples", 2) for m in counts[1:])]
    finite = [p for p in ps if p != math.inf]
    outs = [{} for _ in counts]
    if finite:
        for i, (ri, ti) in enumerate(zip(r, t)):
            if ri > 0 and ti <= 0:
                raise ValueError(f"step bound t[{i}] must be positive on an active axis")
        sets = [_node_steps(True, r, _bits(t), m)[0] for m in counts]
        for out, steps, norms in zip(outs, sets, _norm_blocks(f, r, sets, box, density, finite)):
            # the rule weighs each step by prod(2 t_i / m) / prod(2 t_i) = 1 / len(steps)
            out.update({p: _lp(col, 1.0 / len(steps), p) for p, col in zip(finite, norms)})
    if len(finite) < len(ps):
        for out, m in zip(outs, counts):
            out[math.inf] = sup_modulus_sweep(
                f, r, t, box, density=density, h_samples=m, p_values=[math.inf]
            )[math.inf]
    return outs


def sup_modulus_sweep(
    f: Callable,
    r: Sequence[int],
    t: Sequence[float],
    box: Box,
    *,
    density,
    h_samples: int,
    p_values: Iterable[float],
    nested: bool = False,
):
    """Sup-type modulus for several exponents in one sweep over steps.

    Returns a dict mapping each p to the maximum over the step grid of
    the L_p quasi-norm of the difference field.  The difference field
    for a given step does not depend on p, so sharing the sweep is
    exact, not an approximation.  It is :func:`_sup_sweeps` at one bound.

    With ``nested=True`` (odd ``h_samples`` only) the result is a pair
    ``(sup, coarse)``: ``coarse`` is the sweep with ``(h_samples+1)//2``
    samples, whose nodes are every other node of this one, so it is
    bit-identical to sweeping them separately.
    """
    kw = dict(density=density, h_samples=h_samples, ps=p_values, nested=nested)
    return _sup_sweeps(f, r, [t], box, **kw)[0]


def mean_modulus_sweep(
    f: Callable,
    r: Sequence[int],
    t: Sequence[float],
    box: Box,
    *,
    density,
    h_samples: int,
    p_values: Iterable[float],
) -> dict[float, float]:
    """p-mean modulus for several exponents in one sweep.

    The step integral is a composite midpoint rule with ``h_samples``
    cells per active axis over the symmetric step box, normalized to a
    genuine mean (integral divided by the step-box volume); axes with
    order zero carry no step variable and average out exactly.  The
    p-mean modulus at p = inf is the sup modulus: that exponent is
    swept by :func:`sup_modulus_sweep` and comes after the finite ones.
    This is the one-count case of :func:`_mean_sweeps`.
    """
    return _mean_sweeps(f, r, t, box, density=density, counts=[h_samples], ps=p_values)[0]


def modulus_sup(req: ModulusRequest, f: Callable) -> float:
    """Sup-type mixed modulus of smoothness (lower estimate of the sup)."""
    return sup_modulus_sweep(
        f,
        req.r,
        req.t,
        req.box,
        density=req.density,
        h_samples=req.h_samples,
        p_values=[req.p],
    )[float(req.p)]


def modulus_mean(req: ModulusRequest, f: Callable) -> float:
    """p-mean mixed modulus of smoothness (the sup form at p = inf)."""
    return mean_modulus_sweep(
        f,
        req.r,
        req.t,
        req.box,
        density=req.density,
        h_samples=req.h_samples,
        p_values=[req.p],
    )[float(req.p)]


def _subset_terms(
    sweep: Callable, f: Callable, r: Sequence[int], t: Sequence[float], box: Box, **kw
) -> dict:
    """``sweep``'s result for each nonempty axis subset, the order zeroed
    off it; total moduli need every order r_i >= 1."""
    r = _orders(r, 1)
    if len(r) != box.dim:
        raise ValueError("order must match the box dimension")
    return {e: sweep(f, restrict_order(r, e), t, box, **kw) for e in nonempty_axis_subsets(box.dim)}


def total_sup_terms(
    f: Callable,
    r: Sequence[int],
    t: Sequence[float],
    box: Box,
    *,
    density,
    h_samples: int,
    p_values: Iterable[float],
) -> dict[tuple[int, ...], dict[float, float]]:
    """Per-axis-subset sup moduli, keyed by subset then exponent."""
    # a list, as every subset sweeps every exponent
    kw = dict(density=density, h_samples=h_samples, p_values=list(p_values))
    return _subset_terms(sup_modulus_sweep, f, r, t, box, **kw)


def total_mean_terms(
    f: Callable,
    r: Sequence[int],
    t: Sequence[float],
    box: Box,
    *,
    density,
    h_samples: int,
    p_values: Iterable[float],
) -> dict[tuple[int, ...], dict[float, float]]:
    """Per-axis-subset p-mean moduli (the sup form at p = inf)."""
    kw = dict(density=density, h_samples=h_samples, p_values=list(p_values))
    return _subset_terms(mean_modulus_sweep, f, r, t, box, **kw)


def total_modulus_sup(
    f: Callable,
    r: Sequence[int],
    t: Sequence[float],
    p: float,
    box: Box,
    *,
    density,
    h_samples: int,
) -> float:
    """Total mixed modulus: sum of sup moduli over nonempty axis subsets."""
    terms = total_sup_terms(
        f, r, t, box, density=density, h_samples=h_samples, p_values=[p]
    )
    return float(sum(v[float(p)] for v in terms.values()))


def total_modulus_mean(
    f: Callable,
    r: Sequence[int],
    t: Sequence[float],
    p: float,
    box: Box,
    *,
    density,
    h_samples: int,
) -> float:
    """Total p-mean modulus: sum of mean moduli over nonempty axis subsets."""
    terms = total_mean_terms(
        f, r, t, box, density=density, h_samples=h_samples, p_values=[p]
    )
    return float(sum(v[float(p)] for v in terms.values()))


def lower_whitney_constant(r: Sequence[int], p: float) -> float:
    """Explicit constant bounding the total modulus by any approximation error.

    For each nonempty axis subset e the difference expansion gives
    ``omega_{r(e)}(g) <= K_e ||g||_p``, with the weights w of each axis's
    order-r_i stencil (``_stencil``): ``K_e = prod_{i in e} sum_j |w_j|``
    (each sum is 2^{r_i}) when p >= 1, by the triangle inequality, and
    ``K_e = (prod_{i in e} sum_j |w_j|^p)^(1/p)`` when 0 < p < 1, by p-th
    power subadditivity.  The returned value is the sum of the K_e over
    all nonempty subsets.
    """
    r = _orders(r, 1)
    q = min(_exponent(p), 1.0)
    per_axis = [sum(abs(w) ** q for w, _ in _stencil((ri,))) for ri in r]
    total = 0.0
    for e in nonempty_axis_subsets(len(r)):
        k = 1.0
        for i in e:
            k *= per_axis[i]
        total += k ** (1.0 / q)
    return total
