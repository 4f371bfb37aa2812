"""The memos of f-independent geometry: sweep plans, node step lists and
per-axis bases.  A warm memo gives the same bits as a cold one, keeps its
arrays read-only, stays within its bound and never holds ``f``."""

import gc
import math
import weakref

import numpy as np
import pytest

from mixsmooth import differences, polyapprox
from mixsmooth.corpus import get_function
from mixsmooth.differences import (
    difference_field,
    mean_modulus_sweep,
    sup_modulus_sweep,
    total_mean_terms,
    total_sup_terms,
)
from mixsmooth.domain import Box, sample_on_grid
from mixsmooth.identities import annihilation_residual
from mixsmooth.polyapprox import TensorPolynomial, best_approx

MEMOS = (differences._plan, differences._node_steps, polyapprox._basis_of)


def _clear():
    for memo in MEMOS:
        memo.cache_clear()


def _hits():
    return sum(memo.cache_info().hits for memo in MEMOS)


def _cold_then_warm(compute):
    """``compute()`` from empty memos, then again from the memos it filled;
    the second call must hit them."""
    _clear()
    cold = compute()
    hits = _hits()
    warm = compute()
    assert _hits() > hits
    return cold, warm


def _fit_bits(fit):
    return fit.error, fit.converged, fit.diagnostics, fit.polynomial.coeffs.tobytes()


# (order, box, step bound, h_samples, density): the first sup sweep reads
# the grid (every step a whole number of cells), the second builds clouds
# (one ulp off the grid), the third is a 3-d cloud
SWEEP_CASES = [
    ((1, 1), Box.unit(2), (0.5, 0.5), 17, 16),
    ((1, 1), Box.unit(2), (np.nextafter(0.5, 1.0), 0.5), 17, 16),
    ((2, 2), Box((0.0, 0.0), (1.0, 0.5)), (0.25, 0.125), 9, 16),
    ((1, 1, 1), Box.unit(3), (0.5, 0.5, 0.5), 5, 8),
]


@pytest.mark.parametrize("r, box, t, m, density", SWEEP_CASES)
def test_warm_sweeps_equal_cold_ones(r, box, t, m, density):
    f = get_function("exp_sum_3d" if box.dim == 3 else "trig_rand_2d_a")
    ps = [0.5, 1.0, 2.0, math.inf]
    kw = dict(density=density, h_samples=m, p_values=ps)

    def sweeps():
        return (
            sup_modulus_sweep(f, r, t, box, nested=True, **kw),
            mean_modulus_sweep(f, r, t, box, **kw),
            total_sup_terms(f, r, t, box, **kw),
            total_mean_terms(f, r, t, box, **kw),
        )

    cold, warm = _cold_then_warm(sweeps)
    assert cold == warm


def test_both_engine_paths_are_memoized():
    # the lattice path keeps block bases, the cloud path its step tables
    _clear()
    f = get_function("exp_sum_2d")
    for t, lattice in (((0.5, 0.5), True), ((np.nextafter(0.5, 1.0), 0.5), False)):
        sup_modulus_sweep(f, (1, 1), t, Box.unit(2), density=16, h_samples=17, p_values=[1.0])
        steps, _ = differences._node_steps(False, (1, 1), np.asarray(t).tobytes(), 17)
        plan = differences._plan(
            (1, 1), steps.shape, steps.tobytes(), np.array([0.0, 0.0, 1.0, 1.0]).tobytes(), (16, 16)
        )
        assert (plan.bases is not None) == lattice
        assert (plan.h is None) == lattice
    assert differences._plan.cache_info().hits == 2


def test_warm_difference_fields_and_annihilation_equal_cold_ones():
    f = get_function("cubic_2d")
    phi = TensorPolynomial.random((3, 2), np.random.default_rng(5))
    box = Box((0.0, -0.5), (1.0, 0.5))
    steps = [(0.1, -0.05), (-0.2, 0.1), (0.3, 0.3)]

    def fields():
        out = []
        for h in steps:
            g = difference_field(f, (2, 1), h, box, (16, 12))
            out.append((g.box, g.values.tobytes()))
        out.append(difference_field(f, (2, 1), (2.0, 0.0), box, 16))  # empty domain
        for e in ((0,), (1,), (0, 1)):
            out.append(annihilation_residual(phi, e, steps, box, 8))
        return out

    cold, warm = _cold_then_warm(fields)
    assert cold == warm
    assert cold[3] is None


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, math.inf])
def test_warm_best_approx_equals_cold(p):
    g = sample_on_grid(get_function("holder_half_2d"), Box((0.0, 0.0), (1.0, 0.5)), 16)
    cold, warm = _cold_then_warm(lambda: _fit_bits(best_approx(g, (2, 2), p, seed=3)))
    assert cold == warm


def test_signed_zero_bounds_are_their_own_keys():
    # -0.0 == 0.0 and both hash alike, so a memo keyed by the floats would
    # hand one box the other's geometry; the bits tell them apart
    f = get_function("exp_sum_2d")
    kw = dict(density=16, h_samples=9, p_values=[1.0, math.inf])

    def run(lower, t_1):
        box = Box((lower, 0.0), (1.0, 1.0))
        return (
            sup_modulus_sweep(f, (1, 1), (0.25, t_1), box, nested=True, **kw),
            mean_modulus_sweep(f, (1, 1), (0.25, 0.25), box, **kw),
            _fit_bits(best_approx(sample_on_grid(f, box, 16), (2, 2), 1.0)),
        )

    cases = [(0.0, 0.25), (-0.0, 0.25), (-0.0, 0.0), (-0.0, -0.0)]
    cold = []
    for case in cases:
        _clear()
        cold.append(run(*case))
    _clear()
    for k, (case, want) in enumerate(zip(cases, cold)):
        misses = [memo.cache_info().misses for memo in MEMOS]
        assert run(*case) == want
        if k == 1:  # a new box: new plans and bases, no hit on the other box's
            assert differences._plan.cache_info().misses > misses[0]
            assert polyapprox._basis_of.cache_info().misses > misses[2]
        if k == 3:  # a new step bound: a new step list
            assert differences._node_steps.cache_info().misses > misses[1]


def test_memoized_arrays_are_read_only():
    f = get_function("exp_sum_2d")
    box = Box.unit(2)
    for t in ((0.5, 0.5), (0.3, 0.3)):  # the lattice path, then the cloud path
        steps, coarse = differences._node_steps(False, (1, 1), np.asarray(t).tobytes(), 9)
        chunks = list(differences._fields(f, (1, 1), steps, box, 16))
        plan = differences._plan(
            (1, 1), steps.shape, steps.tobytes(), np.array([0.0, 0.0, 1.0, 1.0]).tobytes(), (16, 16)
        )
        arrays = [steps, coarse, plan.live, plan.lo, plan.hi, plan.shape, plan.cell_volume]
        arrays += [a for a in (plan.bases, plan.h, plan.width) if a is not None]
        arrays += [bounds for _, _, bounds, _, _ in plan.chunks]
        ch = chunks[0]
        arrays += [ch.steps, ch.bounds, ch.lo, ch.hi, ch.shape, ch.cell_volume]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 1
        ch.values[0] = 1.0  # values are the caller's own
    B, M = polyapprox._axis_basis(0.0, 1.0, 8, 3)
    for a in (B, M):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0


def test_memos_stay_within_their_bounds():
    _clear()
    f = get_function("exp_sum_1d")
    box = Box.unit(1)
    n = max(differences._PLAN_MEMO, differences._STEPS_MEMO) + 10
    for k in range(n):
        sup_modulus_sweep(f, (1,), (0.25 + k * 1e-3,), box, density=2, h_samples=2, p_values=[1.0])
    for k in range(polyapprox._BASIS_MEMO + 10):
        polyapprox._axis_basis(0.0, 1.0 + k, 4, 2)
    assert differences._plan.cache_info().currsize == differences._PLAN_MEMO
    assert differences._node_steps.cache_info().currsize == differences._STEPS_MEMO
    assert polyapprox._basis_of.cache_info().currsize == polyapprox._BASIS_MEMO


def test_no_memo_holds_f():
    def closure(scale):
        return lambda X: scale * np.exp(X.sum(axis=-1))

    f = closure(2.0)
    alive = weakref.ref(f)
    box = Box.unit(2)
    kw = dict(density=16, h_samples=17, p_values=[1.0])
    sup_modulus_sweep(f, (1, 1), (0.5, 0.5), box, **kw)  # lattice path
    mean_modulus_sweep(f, (1, 1), (0.5, 0.5), box, **kw)  # cloud path
    difference_field(f, (1, 1), (0.1, 0.1), box, 8)
    best_approx(sample_on_grid(f, box, 8), (2, 2), 1.0)
    del f
    gc.collect()
    assert alive() is None
