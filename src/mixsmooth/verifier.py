"""Inequality verification: left/right sides, empirical constants, stability.

Every checked relation is reported as an :class:`InequalityReport`.
Relations split into two kinds:

* hard checks, where an explicit constant is derivable (the lower
  Whitney bound with the stencil constant, mean <= sup, per-term
  subdivision superadditivity with constant 1, and the d = 2
  best-constant bound with constant 2) -- these carry a pass/fail
  verdict under the tolerance policy;
* empirical checks, where the theory guarantees existence of a constant
  but no value (upper Whitney, the step-integral bound on lower-order
  moduli, the Taylor remainder constant, the mean-vs-sup upper
  direction) -- these record the observed ratio and its stability
  under refinement and never fail unless a ratio is outright infinite.

Tolerance policy: a sup-type modulus is computed on a finite step grid
and therefore *under*-estimates the true value.  When a modulus sits on
the left of an inequality that is safe as is; when it sits on the
right, the right side is inflated by the measured relative gap between
the two finest step grids.  Reports with both sides at the noise floor
are flagged vacuous and never counted as evidence for a constant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .corpus import CorpusFunction, corpus_entries, get_function
from .differences import (
    _coarse_grid_empty,
    _mean_sweeps,
    _sup_sweeps,
    lower_whitney_constant,
    sup_modulus_sweep,
    total_mean_terms,
)
from .domain import (
    Box,
    GridFunction,
    _axis,
    _cells,
    _count,
    _orders,
    lp_quasinorm,
    nonempty_axis_subsets,
    normalize_grid,
    restrict_order,
    sample_on_grid,
)
from .identities import (
    annihilation_residual,
    halving_identity,
    reproduction_identity_gap,
    reproduction_residual,
    unit_decomposition,
)
from .polyapprox import TensorPolynomial, best_approx, taylor_polynomial, taylor_remainder_bound, best_constant

__all__ = [
    "VerifierSettings",
    "InequalityReport",
    "whitney_report",
    "marchaud_report",
    "equivalence_report",
    "superadditivity_report",
    "taylor_report",
    "constant_bound_report",
    "estimate_constants",
    "suite_identities",
    "run_suite",
    "SUITE_NAMES",
]


# Slack of the hard checks, echoed in every report.  ``abs_floor`` times
# ||f||_p on the record's own box (see :func:`_floor`) is both the additive
# noise floor and the vacuousness threshold; the relative slacks absorb the
# quadrature differences between the independently meshed sides.
_TOLERANCES = {"hard_rel": 5e-2, "mean_sup_rel": 1e-3, "superadd_rel": 1e-2, "abs_floor": 1e-9}


@dataclass(frozen=True)
class VerifierSettings:
    """Resolution and reproducibility knobs shared by all reports."""

    grid: int | tuple[int, ...] = 32
    h_samples: int = 9
    seed: int = 0
    refine_h: bool = True

    def __post_init__(self):
        # 2 nodes (+-t) refine only by the zero step, which every sweep drops
        object.__setattr__(self, "h_samples", _count(self.h_samples, "h_samples", 3))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))

    def grid_for(self, box: Box) -> tuple[int, ...]:
        return normalize_grid(self.grid, box.dim)


def _p_str(p: float) -> str:
    """Exponent as text that reads back to the same float: ``inf``, the
    short ``:g`` form when it round-trips, else ``repr``."""
    if p == math.inf:
        return "inf"
    text = f"{float(p):g}"
    return text if float(text) == float(p) else repr(float(p))


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


@dataclass
class InequalityReport:
    """One checked relation: sides, constants, verdict, stability metadata."""

    check: str
    function: str
    params: dict
    left: float
    right: float
    explicit_constant: float | None = None
    empirical_constant: float | None = None
    vacuous: bool = False
    passed: bool | None = None
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)}


def _floor(g: GridFunction, p: float) -> float:
    """The one noise floor, ``abs_floor * ||f||_p`` of the samples ``g`` on the
    record's own box, in the units of a norm-form side, so no verdict moves
    when ``f`` is rescaled or dilated with its box.  Sides that are p-th
    powers compare with ``_floor(g, p) ** p``; refinement gaps with it."""
    return _TOLERANCES["abs_floor"] * lp_quasinorm(g, p)


def _base_params(box: Box, settings: VerifierSettings, **extra) -> dict:
    out = {
        "box": [list(box.lower), list(box.upper)],
        "grid": list(settings.grid_for(box)),
        "h_samples": settings.h_samples,
        "seed": settings.seed,
        "tolerances": dict(_TOLERANCES),
    }
    out.update(extra)
    return out


def _rel_gap(coarse: float, fine: float, floor: float) -> float:
    if coarse <= floor:
        return 0.0
    return max(0.0, (fine - coarse) / coarse)


def _with_gap(f, r, subsets, t, box, settings: VerifierSettings, ps):
    """``(coarse, fine, unsampled)``: ``{e: {p: sup}}`` over the axis subsets
    e of ``subsets``, in order, of the sweep of ``r`` zeroed off e at
    ``h_samples`` and, refined, at ``2*h_samples - 1`` (the coarse one again
    without ``refine_h``), and whether some coarse sweep has no step that
    leaves a nonempty domain, so a term summed from it reads 0 unsampled.

    The refined step grid contains the coarse one, so one refined sweep per
    subset yields both: the coarse values are read off its even-indexed nodes.
    """
    m, kw = settings.h_samples, dict(density=settings.grid_for(box), p_values=ps)
    coarse, fine = {}, {}
    for e in subsets:
        order = restrict_order(r, e)
        if settings.refine_h:
            fine[e], coarse[e] = sup_modulus_sweep(
                f, order, t, box, h_samples=2 * m - 1, nested=True, **kw
            )
        else:
            coarse[e] = fine[e] = sup_modulus_sweep(f, order, t, box, h_samples=m, **kw)
    return coarse, fine, _coarse_grid_empty(r, t, box, m)


def _ratio(num: float, den: float, floor: float):
    """``(ratio, verdict)`` of the empirical constant ``num / den``: the ratio
    when ``den`` is above the noise floor, else no ratio, and a failed
    verdict if ``num`` is above it."""
    if den > floor:
        return num / den, None
    return None, (False if num > floor else None)


def _name(fn) -> str:
    return getattr(fn, "name", getattr(fn, "__name__", "f"))


def _report(
    fn, check, params, left, right, floor, details, *,
    explicit=None, bound=None, ratio=None, unsampled=False,
) -> InequalityReport:
    """The one rule for a numeric check's ``vacuous``, ``passed`` and
    ``empirical_constant``.

    The record is vacuous when both its sides are at or below ``floor``.
    A hard record (``explicit`` given) passes when vacuous or when ``left
    <= bound + floor``; any other record takes :func:`_ratio`'s verdict.
    The empirical constant is ``_ratio(*ratio)``, None without ``ratio``.
    When some summed term's coarse step grid sampled nothing (``unsampled``),
    the record is unresolved: ``passed`` and the constant are None and
    ``details["coarse_grid_empty"]`` is set.
    """
    vacuous = left <= floor and right <= floor
    constant, passed = _ratio(*ratio, floor) if ratio and not unsampled else (None, None)
    if explicit is not None:
        passed = None if unsampled else vacuous or left <= bound + floor
    if unsampled:
        details["coarse_grid_empty"] = True
    return InequalityReport(
        check=check,
        function=_name(fn),
        params=params,
        left=left,
        right=right,
        explicit_constant=explicit,
        empirical_constant=constant,
        vacuous=vacuous,
        passed=passed,
        details=details,
    )


# ---------------------------------------------------------------------------
# Whitney: total modulus vs best approximation error


def _whitney_pairs(
    fn, r, p_values, box, settings
) -> list[tuple[InequalityReport, InequalityReport]]:
    """The two Whitney reports for each p, from one sweep and one sample."""
    r = _orders(r, 1)
    ps = [float(p) for p in p_values]
    g = sample_on_grid(fn, box, settings.grid_for(box))
    t = tuple(box.size)
    sup_c, sup_f, unsampled = _with_gap(fn, r, nonempty_axis_subsets(box.dim), t, box, settings, ps)
    pairs = []
    for p in ps:
        fit = best_approx(g, r, p, seed=settings.seed)
        error = fit.error
        omega = sum(sup_c[e][p] for e in sup_c)
        omega_fine = sum(sup_f[e][p] for e in sup_f)
        floor = _floor(g, p)
        const = lower_whitney_constant(r, p)
        params = _base_params(box, settings, r=list(r), p=_p_str(p))
        details_a = {
            "h_gap": _rel_gap(omega, omega_fine, floor),
            "solver": fit.diagnostics.get("method"),
            "solver_converged": fit.converged,
            "solver_lower_bound": fit.diagnostics.get("lower_bound"),
            "solver_gap": fit.diagnostics.get("gap"),
        }
        # the refined modulus sits on the left, so an unsampled coarse grid is safe there
        rep_a = _report(
            fn, "whitney-lower", params, omega_fine, error, floor, details_a,
            explicit=const, bound=const * error * (1.0 + _TOLERANCES["hard_rel"]),
        )
        rep_b = _report(
            fn, "whitney-ratio", params, error, omega, floor,
            {"solver_converged": fit.converged}, ratio=(error, omega), unsampled=unsampled,
        )
        pairs.append((rep_a, rep_b))
    return pairs


def whitney_report(
    fn: CorpusFunction | Callable,
    r: Sequence[int],
    p: float,
    box: Box,
    settings: VerifierSettings = VerifierSettings(),
) -> tuple[InequalityReport, InequalityReport]:
    """Both directions of the Whitney-type equivalence for one function.

    Report A (hard): the total modulus at the box size is at most the
    explicit stencil constant times the best-approximation error.
    Report B (empirical): the ratio error / total modulus, for which no
    theoretical constant is available.  When some subset's coarse grid has
    no step that leaves a nonempty domain, report B is unresolved (``passed``
    and the ratio are None, ``details["coarse_grid_empty"]`` is set).
    """
    return _whitney_pairs(fn, r, [p], box, settings)[0]


def _rel_change(old: float, new: float) -> float:
    return abs(new - old) / max(old, 1e-300)


def estimate_constants(
    names: Sequence[str],
    r: Sequence[int],
    p_values: Sequence[float],
    grids: Sequence[int],
    seed: int = 0,
) -> list[dict]:
    """Aggregate upper-Whitney ratios across a corpus and a grid ladder.

    Returns one dict per exponent, in the order of ``p_values``: the
    per-function ratios at every grid level, the maximum non-vacuous
    ratio per level, and relative deltas of both between consecutive
    levels.  Each function is swept once per grid level for all the
    exponents.  Deterministic given the seed.
    """
    if not names:
        raise ValueError("corpus selection is empty")
    r = _orders(r, 1)
    seed = _count(seed, "seed", 0)
    ps = [float(p) for p in p_values]
    ladders: list[list[dict]] = [[] for _ in ps]
    for grid in [_count(g, "grid") for g in grids]:
        s = VerifierSettings(grid=grid, seed=seed, refine_h=False)
        levels = [{"grid": grid, "ratios": {}, "vacuous": []} for _ in ps]
        for name in sorted(names):
            fn = get_function(name)
            for level, (_, rep_b) in zip(levels, _whitney_pairs(fn, r, ps, Box.unit(fn.dim), s)):
                if rep_b.vacuous:
                    level["vacuous"].append(name)
                elif rep_b.empirical_constant is not None:
                    level["ratios"][name] = rep_b.empirical_constant
        for level, ladder in zip(levels, ladders):
            level["max_ratio"] = max(level["ratios"].values(), default=0.0)
            ladder.append(level)
    return [
        {
            "r": list(r),
            "p": _p_str(p),
            "seed": seed,
            "levels": ladder,
            "deltas": [
                {
                    "grids": [a["grid"], b["grid"]],
                    "per_function": {
                        n: _rel_change(a["ratios"][n], b["ratios"][n])
                        for n in sorted(set(a["ratios"]) & set(b["ratios"]))
                    },
                    "max_ratio_delta": _rel_change(a["max_ratio"], b["max_ratio"]),
                }
                for a, b in zip(ladder, ladder[1:])
            ],
        }
        for p, ladder in zip(ps, ladders)
    ]


# ---------------------------------------------------------------------------
# Mean vs sup equivalence


def _equivalence_pairs(
    fn, r, t, p_values, box, settings
) -> list[tuple[InequalityReport, InequalityReport]]:
    """The two mean-vs-sup reports for each p, from one set of sweeps."""
    r, t = _orders(r, 1), tuple(t)
    ps = [float(p) for p in p_values]
    density = settings.grid_for(box)
    g = sample_on_grid(fn, box, density)
    sup_c, sup_f, unsampled = _with_gap(fn, r, nonempty_axis_subsets(box.dim), t, box, settings, ps)
    finite = [p for p in ps if p != math.inf]
    mean_terms = {}
    if finite:
        mean_terms = total_mean_terms(
            fn, r, t, box, density=density, h_samples=settings.h_samples, p_values=finite
        )
    pairs = []
    for p in ps:
        omega = sum(sup_c[e][p] for e in sup_c)
        # at p = inf the mean modulus is the sup modulus: the coarse sweep
        mean = omega if p == math.inf else sum(mean_terms[e][p] for e in mean_terms)
        omega_fine = sum(sup_f[e][p] for e in sup_f)
        floor = _floor(g, p)
        gap = _rel_gap(omega, omega_fine, floor)
        params = _base_params(box, settings, r=list(r), t=list(map(float, t)), p=_p_str(p))
        rep_hard = _report(
            fn, "equivalence-mean-le-sup", params, mean, omega_fine, floor,
            {"h_gap": gap, "omega_coarse": omega},
            explicit=1.0,
            bound=omega_fine * (1.0 + gap) * (1.0 + _TOLERANCES["mean_sup_rel"]),
            unsampled=unsampled,
        )
        rep_ratio = _report(
            fn, "equivalence-ratio", params, omega, mean, floor, {},
            ratio=(omega, mean), unsampled=unsampled,
        )
        pairs.append((rep_hard, rep_ratio))
    return pairs


def equivalence_report(
    fn,
    r: Sequence[int],
    t: Sequence[float],
    p: float,
    box: Box,
    settings: VerifierSettings = VerifierSettings(),
) -> tuple[InequalityReport, InequalityReport]:
    """Mean modulus vs sup modulus, both directions.

    Direction 1 is hard: the p-mean total modulus never exceeds the
    sup total modulus (a mean cannot beat a supremum); the sup side is
    inflated by its step-grid refinement gap since it sits on the
    right.  Direction 2 records the empirical ratio sup/mean.  When no
    step of some subset's coarse grid leaves a nonempty domain, that
    term of the coarse sup is 0 and its gap cannot be measured, so both
    reports are unresolved (``passed`` and the ratio are None,
    ``details["coarse_grid_empty"]`` is set).
    """
    return _equivalence_pairs(fn, r, t, [p], box, settings)[0]


# ---------------------------------------------------------------------------
# Subdivision superadditivity


def superadditivity_report(
    fn,
    r: Sequence[int],
    t: Sequence[float],
    p: float,
    box: Box,
    m: int,
    settings: VerifierSettings = VerifierSettings(),
) -> list[InequalityReport]:
    """Mean-modulus p-th powers summed over a congruent subdivision.

    The sharp per-term form holds with constant 1: for each nonempty
    axis subset the shrunken sub-domains are disjoint subsets of the
    parent shrunken domain, so the integrals regroup.  One report per
    subset plus one aggregated total-modulus report with the empirical
    constant.
    """
    return _superadditivity(fn, r, t, [p], box, m, settings)[0]


def _superadditivity(fn, r, t, p_values, box, m, settings) -> list[list[InequalityReport]]:
    """The superadditivity reports for each p, from one set of sweeps; each
    subset's parent at both step counts (refine_h) comes from one engine pass."""
    ps = [float(p) for p in p_values]
    if math.inf in ps:
        raise ValueError("superadditivity is a statement about finite p")
    m = _count(m, "the subdivision count m (pieces per axis)", 2)
    r = _orders(r, 1)
    t = tuple(float(v) for v in t)
    density = settings.grid_for(box)
    counts = (settings.h_samples, 2 * settings.h_samples)[: 2 if settings.refine_h else 1]
    parent_c, parent_f = {}, {}
    for e in nonempty_axis_subsets(box.dim):
        sweeps = _mean_sweeps(fn, restrict_order(r, e), t, box, density=density, counts=counts, ps=ps)
        parent_c[e], parent_f[e] = sweeps[0], sweeps[-1]
    child_density = tuple(max(2, int(math.ceil(n / m))) for n in density)
    children = [
        total_mean_terms(
            fn, r, t, sub, density=child_density, h_samples=settings.h_samples, p_values=ps
        )
        for _, sub in _cells(box, m)
    ]
    g = sample_on_grid(fn, box, density)
    out = []
    for p in ps:
        floor = _floor(g, p)
        params = _base_params(box, settings, r=list(r), t=list(t), p=_p_str(p), splits=m)
        reports = []
        total_left = 0.0
        total_right = 0.0
        for e in nonempty_axis_subsets(box.dim):
            w_parent = parent_c[e][p]
            w_fine = parent_f[e][p]
            gap = _rel_gap(w_parent, w_fine, floor)
            left = sum(child[e][p] ** p for child in children)
            right = max(w_parent, w_fine) ** p
            total_left += left
            total_right += right
            reports.append(
                _report(
                    fn, "superadditivity-term", {**params, "subset": list(e)}, left, right,
                    floor**p, {"h_gap": gap}, explicit=1.0,
                    bound=right * (1.0 + gap) ** p * (1.0 + _TOLERANCES["superadd_rel"]),
                )
            )
        reports.append(
            _report(
                fn, "superadditivity-total", params, total_left, total_right, floor**p, {},
                ratio=(total_left, total_right),
            )
        )
        out.append(reports)
    return out


# ---------------------------------------------------------------------------
# Step-integral (lower order from higher order) bound


def _geometric_nodes(lo: float, hi: float, m: int) -> np.ndarray:
    """The m + 1 edges ``lo (hi / lo)^(j / m)`` of the geometric grid of m
    cells on ``[lo, hi]``.  ``j / m`` is ``2j / 2m`` bit for bit, so the grid
    of 2m cells splits every cell of this one in two and keeps its edges."""
    return lo * (hi / lo) ** (np.arange(m + 1) / m)


def marchaud_report(
    fn,
    k: Sequence[int],
    r: Sequence[int],
    axis: int,
    t: Sequence[float],
    p: float,
    box: Box,
    settings: VerifierSettings = VerifierSettings(),
) -> InequalityReport:
    """Bound a lower-order modulus by the step integral of a higher one.

    Requires ``1 <= k_axis < r_axis`` and ``k_j = r_j`` elsewhere.  The
    integral over step sizes from t_axis to the box side runs on a
    geometric grid (ratio at most 2^(1/4), at least 24 cells) with
    arithmetic midpoints, and the sup modulus at every midpoint comes
    from one engine pass; for p < 1 the p-th-power form of both sides
    is used.  The constant is empirical; with ``refine_h``, its stability
    under doubling the integration grid, which splits every cell in two,
    is recorded (``u_nodes``, ``u_nodes_fine`` = 2 ``u_nodes``, ``u_refine_ratio``).
    """
    return _marchaud(fn, k, r, axis, t, [p], box, settings)[0]


def _marchaud(fn, k, r, axis, t, p_values, box, settings) -> list[InequalityReport]:
    """The Marchaud report for each p: the left side from one sweep, and the
    right side's step bounds, of both rules, from one engine pass."""
    k = _orders(k)
    r = _orders(r)
    t = tuple(float(v) for v in t)
    i = _axis(axis, box.dim)
    if not (1 <= k[i] < r[i]):
        raise ValueError("need 1 <= k_axis < r_axis")
    if any(k[j] != r[j] for j in range(box.dim) if j != i):
        raise ValueError("off-axis orders of k and r must agree")
    if not all(0 < v < math.inf for v in t):
        raise ValueError(f"step bounds t must be positive and finite, got {t}")
    delta_i = float(box.size[i])
    if not t[i] < delta_i:
        raise ValueError("t_axis must be smaller than the box side")
    density = settings.grid_for(box)
    ps = [float(p) for p in p_values]
    kw = dict(density=density, h_samples=settings.h_samples)
    lefts = sup_modulus_sweep(fn, k, t, box, p_values=ps, **kw)
    g = sample_on_grid(fn, box, density)
    norms = {p: lp_quasinorm(g, p) for p in ps}
    # ratio at most 2^(1/4), at least 24 cells; the fine rule (refine_h) halves every cell
    n_nodes = max(24, math.ceil(math.log(delta_i / t[i]) / math.log(2.0**0.25)))
    n_fine = 2 * n_nodes if settings.refine_h else n_nodes
    edges = {m: _geometric_nodes(t[i], delta_i, m) for m in (n_nodes, n_fine)}
    us = [float(u) for e in edges.values() for u in 0.5 * (e[:-1] + e[1:])]
    bounds = [t[:i] + (u,) + t[i + 1 :] for u in us]  # both rules', swept in one pass
    oms = dict(zip(us, _sup_sweeps(fn, r, bounds, box, ps=ps, **kw)))

    def rights(m):
        """Per p, the right side from the u midpoints of m geometric cells,
        in the q-th-power form, q = min(p, 1) (q = 1 is the plain form)."""
        integrals = dict.fromkeys(ps, 0.0)
        for u, w in zip(0.5 * (edges[m][:-1] + edges[m][1:]), np.diff(edges[m])):
            for p in ps:
                q = min(p, 1.0)
                integrals[p] += w * oms[float(u)][p] ** q / u ** (k[i] * q + 1)
        out = {}
        for p in ps:
            q = min(p, 1.0)
            bracket = integrals[p] + norms[p] ** q / delta_i ** (k[i] * q)
            out[p] = (t[i] ** (k[i] * q) * bracket) ** (1.0 / q)
        return out

    rights_c = rights(n_nodes)
    rights_f = rights(n_fine) if settings.refine_h else rights_c
    reports = []
    for p in ps:
        left, right = lefts[p], rights_c[p]
        floor = _floor(g, p)
        c2 = _ratio(left, rights_f[p], floor)[0]
        details = {
            "u_nodes": n_nodes,
            "form": "p>=1" if p >= 1 else "p<1",
            "u_nodes_fine": n_fine,
            "constant_fine": c2,
        }
        params = _base_params(box, settings, k=list(k), r=list(r), axis=i, t=list(t), p=_p_str(p))
        rep = _report(fn, "marchaud", params, left, right, floor, details, ratio=(left, right))
        if rep.empirical_constant and c2:
            details["u_refine_ratio"] = c2 / rep.empirical_constant
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Taylor remainder


def taylor_report(
    fn: CorpusFunction,
    r: Sequence[int],
    p: float,
    deltas: Sequence[float],
    settings: VerifierSettings = VerifierSettings(),
) -> InequalityReport:
    """Taylor remainder against the mixed-derivative bracket on a box ladder.

    For each box ``[0, delta]^d`` (anchored at the origin, the Taylor
    base point) the left side is the quasi-norm of ``f - P_r(f)`` and
    the right side the derivative bracket; the empirical constant must
    stay within a bounded band along the ladder (consecutive ratio in
    [0.25, 4]).  Each level takes the noise floor of ``f`` on its own box;
    the report is vacuous when no level gives a ratio or every level's
    left side is at its floor.  Requires p >= 1 and derivative data.
    """
    if not p >= 1:
        raise ValueError("the Taylor bracket is stated for p >= 1")
    if not fn.has_derivatives:
        raise ValueError(f"corpus entry {fn.name!r} carries no derivative data")
    r = _orders(r, 1)
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("deltas must hold at least one box side")
    taylor = taylor_polynomial(fn.derivative, (0.0,) * fn.dim, r)
    lefts, rights, constants, floored = [], [], [], []
    for d in deltas:
        box = Box.cube(0.0, d, fn.dim)
        grid = settings.grid_for(box)
        g = sample_on_grid(fn, box, grid)
        resid = GridFunction(box, g.values - taylor(g.midpoints()))
        left = lp_quasinorm(resid, p)
        right = taylor_remainder_bound(fn.derivative, r, p, box, density=grid)
        floor = _floor(g, p)
        lefts.append(left)
        rights.append(right)
        constants.append(_ratio(left, right, floor)[0])
        floored.append(left <= floor)
    usable = [c for c in constants if c is not None]
    ratios = [b / a for a, b in zip(usable, usable[1:]) if a > 0]
    ok = all(0.25 <= q <= 4.0 for q in ratios)
    vac = not usable or all(floored)
    return InequalityReport(
        check="taylor",
        function=fn.name,
        params=_base_params(
            Box.cube(0.0, max(deltas), fn.dim),
            settings,
            r=list(r),
            p=_p_str(p),
            deltas=deltas,
        ),
        left=lefts[-1],
        right=rights[-1],
        empirical_constant=usable[-1] if usable else None,
        vacuous=vac,
        passed=True if vac else ok,
        details={"lefts": lefts, "rights": rights, "constants": constants, "ratios": ratios},
    )


# ---------------------------------------------------------------------------
# Approximation by a constant (d = 2 explicit form)


def constant_bound_report(
    fn,
    p: float,
    box: Box,
    settings: VerifierSettings = VerifierSettings(),
) -> InequalityReport:
    """Best-constant error against twice the sum of first-order moduli powers.

    The two-sided integral argument yields, for d = 2 and 0 < p <= 1,
    ``integral_Q |f - beta|^p <= 2 [omega_(1,0)^p + omega_(0,1)^p]``
    at steps up to the box size.  That range carries an explicit
    constant 2 and is checked hard; other p report the ratio only.
    Both sides are integrals over Q (``omega^p`` integrates over the
    shrunken domain), so neither is divided by |Q| and the verdict does
    not depend on the box's size; the ``normalization`` detail says so.
    When the coarse step grid of either sweep leaves no nonempty domain,
    the right side misses that term and its gap, so the report is
    unresolved (``passed`` and the ratio are None,
    ``details["coarse_grid_empty"]`` is set).
    """
    return _constant_bound(fn, [p], box, settings)[0]


def _constant_bound(fn, p_values, box, settings) -> list[InequalityReport]:
    """The constant-lemma report for each p, from one sweep per axis."""
    if box.dim != 2:
        raise ValueError("the explicit constant form is two-dimensional")
    ps = [float(p) for p in p_values]
    if math.inf in ps:
        raise ValueError("the best-constant bound is a statement about finite p")
    g = sample_on_grid(fn, box, settings.grid_for(box))
    t = tuple(box.size)
    coarse, fine, unsampled = _with_gap(fn, (1, 1), [(0,), (1,)], t, box, settings, ps)
    reports = []
    for p in ps:
        beta, err = best_constant(g, p)
        left = err**p
        moduli = [(coarse[e][p], fine[e][p]) for e in coarse]
        floor = _floor(g, p)
        right_raw = 2.0 * sum(c**p for c, _ in moduli)
        gaps = [_rel_gap(c, f, floor) for c, f in moduli]
        right = 2.0 * sum((c * (1.0 + gp)) ** p for (c, _), gp in zip(moduli, gaps))
        hard = p <= 1.0
        details = {
            "beta": beta,
            "h_gaps": gaps,
            "normalization": "both sides integrals over the box, no 1/|Q|",
            "mode": "hard" if hard else "ratio-only",
        }
        reports.append(
            _report(
                fn, "constant-lemma", _base_params(box, settings, p=_p_str(p)), left, right,
                floor**p, details, explicit=2.0 if hard else None,
                bound=right * (1.0 + _TOLERANCES["hard_rel"]), ratio=(left, right_raw),
                unsampled=unsampled,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Identity suite (exact arithmetic checks wrapped as reports)


# (dimension, order) of the random tensor polynomials whose differences
# the annihilation check samples
_ANNIHILATION_CASES = ((1, (3,)), (2, (2, 3)), (3, (2, 2, 2)))


def suite_identities(
    settings: VerifierSettings = VerifierSettings(),
    *,
    max_dim: int = 3,
    max_order: int = 4,
    halving_orders: int = 10,
    n_random: int = 50,
) -> list[InequalityReport]:
    """Exact-arithmetic checks: decompositions, halving, reproduction, annihilation.

    Each check is one record of no function, never vacuous and without
    constants.  The decompositions and the halving witnesses verify
    themselves exactly and raise on a failure, which is a bug and is
    never recorded.
    """
    max_dim, max_order = _count(max_dim, "max_dim"), _count(max_order, "max_order")
    halving_orders = _count(halving_orders, "halving_orders")
    n_random = _count(n_random, "n_random")

    def record(check, params, left, right, passed, details) -> InequalityReport:
        return InequalityReport(
            check=f"identity-{check}", function="-", params=params, left=left, right=right,
            vacuous=False, passed=passed, details=details,
        )

    sizes = range(1, max_order + 1)
    orders = [r for d in range(1, max_dim + 1) for r in itertools.product(sizes, repeat=d)]
    for r in orders:
        unit_decomposition(r)
    reports = [
        record(
            "unit-decomposition", {"max_dim": max_dim, "max_order": max_order}, 0.0, 0.0, True,
            {"cases": len(orders), "failures": []},
        )
    ]

    degrees = [max(j for (j,) in halving_identity(kk)) for kk in range(1, halving_orders + 1)]
    passed = all(deg == kk - 1 for kk, deg in enumerate(degrees, 1))
    params = {"orders": halving_orders}
    reports.append(record("halving", params, 0.0, 0.0, passed, {"witness_degrees": degrees}))

    rng = np.random.default_rng(settings.seed)
    # reproduction formula: exact for space members, and the residual always
    # matches the difference-side restatement pointwise
    passed, details = True, {}
    for r in ((2,), (3,), (1, 1), (2, 2)):
        d, key = len(r), "x".join(map(str, r))
        box = Box.unit(d)
        phi = TensorPolynomial.random(r, rng)
        scale = float(np.abs(phi.coeffs).max()) + 1.0
        h_list = [tuple(0.04 + 0.015 * j for _ in range(d)) for j in range(3)]
        resid = details[f"member_residual_{key}"] = reproduction_residual(phi, r, box, h_list, 8)
        probe = get_function("exp_sum_1d" if d == 1 else "exp_sum_2d")
        gap = details[f"identity_gap_{key}"] = reproduction_identity_gap(probe, r, box, h_list, 8)
        passed = passed and not (resid > 1e-9 * scale or gap > 1e-9 * math.e**d)
    params = {"orders": ["2", "3", "1x1", "2x2"]}
    reports.append(record("reproduction", params, max(details.values()), 0.0, passed, details))

    worst = 0.0
    for d, r in _ANNIHILATION_CASES:
        box = Box.unit(d)
        steps = [(float(h0),) * d for h0 in np.linspace(-0.2, 0.2, 5) if h0 != 0.0]
        for _ in range(n_random):
            phi = TensorPolynomial.random(r, rng)
            g = sample_on_grid(phi, box, 8)
            scale = float(np.abs(g.values).max(initial=0.0)) + float(np.abs(phi.coeffs).max())
            for e in nonempty_axis_subsets(d):
                rel = annihilation_residual(phi, e, steps, box, 8) / scale
                worst = max(worst, rel)
    params = {"cases": [list(map(str, c)) for c in _ANNIHILATION_CASES], "random": n_random}
    details = {"worst_relative_residual": worst}
    reports.append(record("annihilation", params, worst, 1e-9, worst <= 1e-9, details))
    return reports


# ---------------------------------------------------------------------------
# Suites over the corpus


def _orders_for(dim: int, orders) -> list[tuple[int, ...]]:
    """The given orders of length ``dim``; by default all ones and all twos."""
    if orders is None:
        return [(1,) * dim, (2,) * dim]
    return [tuple(r) for r in orders if len(r) == dim]


def _marchaud_case(dim: int, orders) -> list[tuple]:
    """Marchaud's one (k, r, t) at ``dim``: r = (2, ..., 2), k = r but 1
    on axis 0, every step bound 1/8; requested orders do not apply."""
    r = (2,) * dim
    return [((1,) + r[1:], r, (0.125,) * dim)]


_D2_NAMES = tuple(e.name for e in corpus_entries(dim=2))


class _Suite(NamedTuple):
    """One row of the suite table.

    ``dims`` are the dimensions of the functions the suite checks,
    ``names`` its default functions, ``takes(p)`` whether its check is
    stated at the exponent p (its builder raises ``ValueError`` at every
    other p), and ``orders`` the orders it checks at a function's
    dimension.  ``report(fn, order, ps, box, settings)`` runs one
    (function, order) for all its exponents and returns one list of
    reports per exponent.  A row with no ``dims`` checks no function:
    its ``report(settings)`` runs once.
    """

    dims: tuple[int, ...]
    report: Callable[..., list]
    names: tuple[str, ...] = _D2_NAMES
    takes: Callable[[float], bool] = lambda p: True
    orders: Callable[[int, Sequence | None], list] = _orders_for
    needs_derivatives: bool = False


# A 3-d step sweep at the default resolution is thousands of times the
# work of a 2-d one, so the sweep suites stop at d = 2; the constant-lemma
# form is 2-d.  "all" runs the rows in this order.
_SUITES: dict[str, _Suite] = {
    "identities": _Suite(dims=(), report=suite_identities),
    "whitney": _Suite(dims=(1, 2), report=_whitney_pairs),
    "equivalence": _Suite(
        dims=(1, 2),
        report=lambda fn, r, ps, box, s: _equivalence_pairs(
            fn, r, tuple(0.5 * v for v in box.size), ps, box, s
        ),
    ),
    "superadditivity": _Suite(
        dims=(1, 2),
        takes=math.isfinite,
        report=lambda fn, r, ps, box, s: _superadditivity(
            fn, r, tuple(0.125 * v for v in box.size), ps, box, 2, s
        ),
    ),
    "taylor": _Suite(
        dims=(1, 2),
        takes=lambda p: p >= 1,
        report=lambda fn, r, ps, box, s: [
            [taylor_report(fn, r, p, (0.25, 0.125, 0.0625), s)] for p in ps
        ],
        needs_derivatives=True,
    ),
    "marchaud": _Suite(
        dims=(1, 2),
        names=("exp_sum_2d", "sin_prod_2d", "holder_half_2d", "spline_prod_2d"),
        orders=_marchaud_case,
        report=lambda fn, krt, ps, box, s: [
            [rep] for rep in _marchaud(fn, krt[0], krt[1], 0, krt[2], ps, box, s)
        ],
    ),
    # hard at p <= 1, ratio-only above, as constant_bound_report is
    "constant-lemma": _Suite(
        dims=(2,),
        takes=math.isfinite,
        orders=lambda dim, orders: [()],
        report=lambda fn, _, ps, box, s: [[rep] for rep in _constant_bound(fn, ps, box, s)],
    ),
}

SUITE_NAMES = (*_SUITES, "all")


def run_suite(
    suite: str,
    settings: VerifierSettings,
    *,
    names: Sequence[str] | None = None,
    orders: Sequence[Sequence[int]] | None = None,
    p_values: Sequence[float] = (0.5, 1.0, 2.0, math.inf),
) -> list[InequalityReport]:
    """Run one named verification suite (or all of them) over the corpus.

    Each row runs the requested exponents its check takes, sorted by
    their text, over sorted function names and sorted orders, so reports
    do not depend on the order of the requests.  The exponents of one
    (function, order) are run together, so every sweep row (all but the
    identities and Taylor) shares one sweep across them.  ``names``,
    ``orders`` and ``p_values`` narrow the selection; the identities
    take none of them.
    """
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    reports: list[InequalityReport] = []
    for row in _SUITES.values() if suite == "all" else [_SUITES[suite]]:
        if not row.dims:
            reports.extend(row.report(settings))
            continue
        ps = sorted((p for p in p_values if row.takes(p)), key=_p_str)
        for name in sorted(row.names if names is None else names):
            fn = get_function(name)
            if fn.dim not in row.dims or (row.needs_derivatives and not fn.has_derivatives):
                continue
            box = Box.unit(fn.dim)
            for order in sorted(row.orders(fn.dim, orders)):
                for reps in row.report(fn, order, ps, box, settings) if ps else []:
                    reports.extend(reps)
    return reports
