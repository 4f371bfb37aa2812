import functools
import importlib.util
import itertools
import math
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg
from numpy.polynomial import polynomial as nppoly

from mixsmooth import polyapprox
from mixsmooth.corpus import corpus_entries, get_function
from mixsmooth.domain import Box, GridFunction, _cells, lp_quasinorm, sample_on_grid
from mixsmooth.polyapprox import (
    TensorPolynomial,
    best_approx,
    best_constant,
    piecewise_constant_approx,
    taylor_polynomial,
    taylor_remainder_bound,
)


def test_eval_poly_examples():
    zero = TensorPolynomial(np.zeros((2, 2)))
    assert zero(np.array([0.3, 0.4])) == 0.0
    line = TensorPolynomial(np.array([1.0, 2.0]))
    assert line(np.array([0.25])) == pytest.approx(1.5)
    xy = TensorPolynomial(np.array([[0.0, 0.0], [0.0, 1.0]]))
    pts = np.array([[2.0, 3.0], [0.5, 0.5]])
    assert np.allclose(xy(pts), [6.0, 0.25])


def test_polynomial_derivative_exact():
    # d/dx^2 of x^3 is 6x; mixed derivative of x^2 y is 2y at order (2, 0)
    cubic = TensorPolynomial(np.array([0.0, 0.0, 0.0, 1.0]))
    d2 = cubic.derivative((2,))
    assert np.allclose(d2.coeffs, [0.0, 6.0])
    assert cubic.derivative((4,)).coeffs.max() == 0.0
    f = TensorPolynomial(np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    dxx = f.derivative((2, 0))
    assert np.allclose(dxx.coeffs, [[0.0, 2.0]])


def _oracle_derivative(coeffs, order):
    """Mixed derivative by explicit factorial factors, one axis at a time."""
    c = np.asarray(coeffs, float)
    for axis, m in enumerate(order):
        m = int(m)
        if m == 0:
            continue
        n = c.shape[axis]
        if m >= n:
            shape = list(c.shape)
            shape[axis] = 1
            c = np.zeros(shape)
            continue
        # factors[k] = (k+m)! / k! for the shifted coefficient c[k+m]
        factors = np.ones(n - m)
        for k in range(n - m):
            acc = 1.0
            for t in range(1, m + 1):
                acc *= k + t
            factors[k] = acc
        sl = [slice(None)] * c.ndim
        sl[axis] = slice(m, None)
        c = c[tuple(sl)] * factors.reshape([-1 if ax == axis else 1 for ax in range(c.ndim)])
    return c


DEGREE_SHAPES = [(5,), (4, 4), (3, 4), (2, 3, 2), (4,)]


@pytest.mark.parametrize("shape", DEGREE_SHAPES, ids=str)
def test_derivative_matches_factorial_oracle_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    phi = TensorPolynomial.random(shape, rng)
    for order in itertools.product(range(6), repeat=len(shape)):
        got = phi.derivative(order).coeffs
        want = _oracle_derivative(phi.coeffs, order)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # zero polynomials are +0.0: a -0.0 would reach JSON reports
        assert not np.signbit(got).any() or all(m < n for m, n in zip(order, shape))


@pytest.mark.parametrize("shape", [(5,), (3, 4), (4, 4), (2, 3, 2)], ids=str)
def test_polynomial_values_do_not_depend_on_layout(shape):
    rng = np.random.default_rng(len(shape))
    phi = TensorPolynomial.random(shape, rng)
    d = len(shape)
    # the sweeps' layout: a transposed view of a (d, offsets, points) buffer
    view = rng.uniform(-1.5, 1.5, (d, 3, 50)).transpose(1, 2, 0)
    dense = np.ascontiguousarray(view)
    assert d == 1 or not view.flags.c_contiguous
    got = phi(view)
    assert got.shape == (3, 50)
    assert got.tobytes() == phi(dense).tobytes()
    single = phi(dense[1, 7])
    assert isinstance(single, float)
    assert np.float64(single).tobytes() == got[1, 7].tobytes()


def _polyval_fold(coeffs, x):
    """The oracle of tensor-polynomial values: numpy's polyval folded one
    axis at a time, as ``TensorPolynomial`` evaluated before it went in place."""
    x = np.asarray(x, float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    res = nppoly.polyval(pts[..., 0], coeffs, tensor=True)
    for i in range(1, coeffs.ndim):
        res = nppoly.polyval(pts[..., i], res, tensor=False)
    return float(res[0]) if single else res


@pytest.mark.parametrize("dim", (1, 2, 3))
def test_polynomial_values_are_the_polyval_fold_bit_for_bit(dim):
    rng = np.random.default_rng(40 + dim)
    signed = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.5])
    for _ in range(60):
        shape = tuple(rng.integers(1, 6, dim))
        c = rng.standard_normal(shape)
        c[rng.random(shape) < 0.3] = 0.0
        c[rng.random(shape) < 0.3] = -0.0
        phi = TensorPolynomial(c)
        inputs = [
            rng.choice(signed, dim),  # a single point
            rng.choice(signed, (4, 6, dim)),  # a (..., d) batch
            rng.uniform(-2.0, 2.0, (25, dim)),
            # inf * 0 and NaN: the NaN that comes out is polyval's, sign and all
            rng.choice(np.array([np.inf, -np.inf, np.nan, -0.0, 1.0]), (30, dim)),
            # the engine's (offsets, points, d) view of a (d, offsets, points) buffer
            rng.choice(signed, (dim, 3, 40)).transpose(1, 2, 0),
        ]
        for x in inputs:
            with np.errstate(invalid="ignore"):
                got, want = phi(x), _polyval_fold(phi.coeffs, x)
            if x.ndim == 1:
                assert isinstance(got, float)
                got, want = np.float64(got), np.float64(want)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (shape, x)


def test_polynomial_values_on_an_engine_view_need_one_accumulator_per_axis():
    # cubic_2d (r = (4, 4)) on the engine's (offsets, points, d) view of
    # N = 8192 points: axis 0's accumulator holds r_1 = 4 rows of N, axis 1's
    # one row and x*0 one more, so the peak is (4 + 2) N doubles; polyval's
    # fresh (r, N) array at every Horner step peaked at about twice that
    phi = get_function("cubic_2d").f
    x = np.random.default_rng(3).uniform(0.0, 1.0, (2, 2, 4096)).transpose(1, 2, 0)
    n = x.shape[0] * x.shape[1]
    phi(x)
    tracemalloc.start()
    try:
        phi(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # slack: the array headers, far below one row of 64 KB
    assert peak <= (4 + 2) * n * 8 + 4096


def test_best_approx_recovers_space_member():
    rng = np.random.default_rng(2)
    phi = TensorPolynomial.random((2, 2), rng)
    g = sample_on_grid(phi, Box.unit(2), 16)
    scale = float(np.abs(g.values).max())
    for p in (0.5, 1.0, 2.0, math.inf):
        res = best_approx(g, (2, 2), p, seed=1)
        assert res.error <= 1e-9 * max(1.0, scale)
        fitted = res.polynomial(g.midpoints())
        assert np.abs(fitted - g.values).max() <= 1e-7 * max(1.0, scale)


def test_best_approx_projection_oracle_p2():
    g = sample_on_grid(lambda X: X[..., 0] ** 2, Box.unit(1), 256)
    res = best_approx(g, (2,), 2.0)
    assert res.error == pytest.approx(1.0 / (6.0 * math.sqrt(5.0)), abs=1e-3)
    assert res.converged


def test_best_approx_matches_dense_lstsq_oracle():
    # same discrete problem solved by one global SVD least-squares call
    for name in [e.name for e in corpus_entries(dim=2)][:10]:
        fn = get_function(name)
        g = sample_on_grid(fn, Box.unit(2), 24)
        res = best_approx(g, (2, 2), 2.0)
        pts = g.midpoints().reshape(-1, 2)
        cols = []
        for sx in range(2):
            for sy in range(2):
                cols.append(pts[:, 0] ** sx * pts[:, 1] ** sy)
        A = np.stack(cols, axis=1)
        sol, *_ = np.linalg.lstsq(A, g.values.reshape(-1), rcond=None)
        resid = g.values.reshape(-1) - A @ sol
        oracle = math.sqrt(float((resid**2).sum() * g.cell_volume))
        assert res.error == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_best_approx_minimax_constant_is_midrange():
    # samples (i + 1/2)/128: midrange exactly 1/2, error (127/128)/2
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 128)
    res = best_approx(g, (1,), math.inf)
    assert res.converged
    assert res.polynomial.coeffs[0] == pytest.approx(0.5, abs=1e-15)
    assert res.error == pytest.approx(127.0 / 256.0, rel=1e-15)


# Discrete minimax problems for the exchange solver: d = 1 up to r = 6,
# symmetric 2-D functions at r = (4, 4) (degenerate references in bulk),
# members of P_r (const_*, bilinear_2d, low-degree 1-D members), whose
# fit is the projection, and d = 3.
MINIMAX_CASES = (
    [(e.name, 64, (r,)) for e in corpus_entries(dim=1) for r in range(1, 7)]
    + [
        (name, 32, (4, 4))
        for name in ("holder_half_2d", "holder_one_2d", "holder_threehalf_2d", "spline_taper_2d")
    ]
    + [("spline_taper_2d", 64, (4, 4))]
    + [
        (name, 24, r)
        for name in ("exp_sum_2d", "trig_rand_2d_a", "bilinear_2d", "const_2d")
        for r in ((1, 1), (2, 2), (2, 3))
    ]
    + [("exp_sum_3d", 8, (2, 2, 2))]
)


def _minimax(case):
    name, grid, r = case
    g = sample_on_grid(get_function(name), Box.unit(len(r)), grid)
    res = best_approx(g, r, math.inf)
    floor = 1e-13 * max(1.0, float(np.abs(g.values).max()))
    return g, res, floor


def _case_id(case):
    name, grid, r = case
    return f"{name}-{grid}-r{''.join(map(str, r))}"


def _method(case, solver):
    """The method ``best_approx`` reports for the case: every fit by
    constants is ``best_constant``'s, every other fit of data in P_r is
    the projection's, the others are ``solver``'s."""
    name, _, r = case
    if math.prod(r) == 1:
        return "exact-constant"
    space = get_function(name).poly_space
    return "projection" if space and all(s <= ri for s, ri in zip(space, r)) else solver


@pytest.mark.parametrize("case", MINIMAX_CASES, ids=_case_id)
def test_exchange_certificate_brackets_the_error(case):
    g, res, floor = _minimax(case)
    diag = res.diagnostics
    assert res.converged and diag["method"] == _method(case, "exchange")
    lower = diag["lower_bound"]
    assert 0.0 <= lower <= res.error <= lower * (1.0 + 1e-12) + floor
    # the reported error is the polynomial's own maximum residual
    resid = np.abs(g.values - res.polynomial(g.midpoints())).max()
    assert res.error == pytest.approx(resid, rel=1e-9, abs=floor)


def _legendre_design(g, r):
    """Tensor Legendre design on the grid midpoints, rows in C order."""
    design = np.ones((1, 1))
    for i, ri in enumerate(r):
        lo, hi = g.box.lower[i], g.box.upper[i]
        x = lo + (np.arange(g.spec[i]) + 0.5) * (hi - lo) / g.spec[i]
        V = npleg.legvander((2.0 * x - lo - hi) / (hi - lo), ri - 1)
        design = np.einsum("ia,jb->ijab", design, V).reshape(
            design.shape[0] * V.shape[0], -1
        )
    return design


@pytest.mark.parametrize("case", MINIMAX_CASES, ids=_case_id)
def test_exchange_matches_linear_programming_oracle(case):
    optimize = pytest.importorskip("scipy.optimize")
    g, res, floor = _minimax(case)
    D = _legendre_design(g, case[2])
    t = g.values.reshape(-1)
    n, k = D.shape
    # min z  subject to  -z <= t - D c <= z
    ones = np.ones((n, 1))
    lp = optimize.linprog(
        np.r_[np.zeros(k), 1.0],
        A_ub=np.block([[-D, -ones], [D, -ones]]),
        b_ub=np.r_[-t, t],
        bounds=[(None, None)] * (k + 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert lp.status == 0
    oracle = float(np.abs(t - D @ lp.x[:k]).max())
    # the oracle's residual is achieved, so the certified lower bound
    # lies below it and the exchange solver does no worse
    assert res.diagnostics["lower_bound"] <= oracle * (1.0 + 1e-12) + floor
    assert res.error <= oracle * (1.0 + 1e-12) + floor
    assert oracle <= res.error * (1.0 + 1e-6) + floor


def test_exchange_cap_returns_best_iterate_unconverged(monkeypatch):
    g = sample_on_grid(get_function("spline_taper_2d"), Box.unit(2), 32)
    monkeypatch.setattr(polyapprox, "_MAX_ITER", 2)
    capped = best_approx(g, (4, 4), math.inf)
    assert not capped.converged and capped.diagnostics["iterations"] == 2
    proj = best_approx(g, (4, 4), 2.0).polynomial
    start = np.abs(g.values - proj(g.midpoints())).max()
    assert capped.diagnostics["lower_bound"] <= capped.error <= start + 1e-12


# Discrete L1 problems for the vertex descent: symmetric grids that tie
# breakpoints, d = 1 up to r = 4 and d = 3, and members of P_r
# (const_2d, bilinear_2d at r = (2,2), linear_1d), whose fit is the
# projection.
L1_CASES = (
    [
        (name, grid, r)
        for name in (
            "const_2d", "bilinear_2d", "exp_sum_2d", "holder_one_2d",
            "cos_ripple_2d", "spline_taper_2d", "trig_rand_2d_a",
        )
        for grid in (8, 16)
        for r in ((1, 1), (2, 2))
    ]
    + [
        (name, 32, (r,))
        for name in ("abs_kink_1d", "holder_half_1d", "linear_1d")
        for r in range(1, 5)
    ]
    + [("exp_sum_3d", 8, (2, 2, 2))]
)


def _l1_oracle(D, t, cv):
    """min_c sum |t - D c| * cv by HiGHS, recomputed from its coefficients."""
    optimize = pytest.importorskip("scipy.optimize")
    n, k = D.shape
    # min sum u  subject to  -u <= t - D c <= u
    eye = np.eye(n)
    lp = optimize.linprog(
        np.r_[np.zeros(k), np.ones(n)],
        A_ub=np.block([[-D, -eye], [D, -eye]]),
        b_ub=np.r_[-t, t],
        bounds=[(None, None)] * k + [(0, None)] * n,
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert lp.status == 0
    return float(np.abs(t - D @ lp.x[:k]).sum() * cv)


def _irls_error(g, r):
    """Error of the reweighted least squares that served p = 1 before,
    on the solver's own design and projection start."""
    bases = [
        polyapprox._axis_basis(g.box.lower[i], g.box.upper[i], g.spec[i], r[i])[0]
        for i in range(g.box.dim)
    ]
    weighted = [B * cw for B, cw in zip(bases, g.cell_widths)]
    c2 = polyapprox._contract_stack(g.values[None], weighted)[0].reshape(-1)
    scale = max(float(np.abs(g.values).max()), 1e-30)
    design = functools.reduce(np.kron, bases)
    _, obj, _, _ = polyapprox._irls(
        design, g.values.reshape(-1), c2, 1.0, g.cell_volume, 1e-10 * scale
    )
    return obj


@pytest.mark.parametrize("case", L1_CASES, ids=_case_id)
def test_vertex_descent_matches_linear_programming_oracle(case):
    name, grid, r = case
    g = sample_on_grid(get_function(name), Box.unit(len(r)), grid)
    floor = 1e-13 * max(1.0, float(np.abs(g.values).max()))
    res = best_approx(g, r, 1.0)
    diag = res.diagnostics
    assert res.converged and diag["method"] == _method(case, "vertex-descent")
    oracle = _l1_oracle(_legendre_design(g, r), g.values.reshape(-1), g.cell_volume)
    assert res.error <= oracle * (1.0 + 1e-12) + floor
    assert diag["lower_bound"] <= oracle * (1.0 + 1e-12) + floor
    assert res.error <= _irls_error(g, r) * (1.0 + 1e-12) + floor
    # the certificate brackets the error, which is the polynomial's own
    assert 0.0 <= diag["lower_bound"] <= res.error
    if diag["iterations"] > 0:
        assert res.error <= diag["lower_bound"] * (1.0 + 1e-12) + floor
    resid = np.abs(g.values - res.polynomial(g.midpoints())).sum() * g.cell_volume
    assert res.error == pytest.approx(resid, rel=1e-9, abs=floor)


def test_vertex_descent_cap_returns_best_vertex_unconverged(monkeypatch):
    g = sample_on_grid(get_function("holder_one_2d"), Box.unit(2), 16)
    best = best_approx(g, (2, 2), 1.0)
    assert best.converged and best.diagnostics["iterations"] > 3
    errors = []
    for cap in (0, 1, 2, 3):
        monkeypatch.setattr(polyapprox, "_MAX_ITER", cap)
        capped = best_approx(g, (2, 2), 1.0)
        assert not capped.converged and capped.diagnostics["iterations"] == cap
        # a valid bound even unconverged, below the optimum
        assert capped.diagnostics["lower_bound"] <= best.error * (1.0 + 1e-12)
        errors.append(capped.error)
    # every exchange lowers the error, and none goes below the optimum
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] > best.error


def test_best_approx_l1_constant_is_median_like():
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 256)
    res = best_approx(g, (1,), 1.0)
    assert res.error == pytest.approx(0.25, abs=2e-3)


def test_best_approx_invariance_and_scaling():
    f = lambda X: np.sin(2 * np.pi * X[..., 0])
    box = Box.unit(1)
    g = sample_on_grid(f, box, 64)
    rng = np.random.default_rng(4)
    phi = TensorPolynomial.random((2,), rng)
    shifted = GridFunction(box, g.values + phi(g.midpoints()))
    scaled = GridFunction(box, -2.5 * g.values)
    for p, tol in ((2.0, 1e-10), (1.0, 1e-5), (math.inf, 1e-6)):
        base = best_approx(g, (2,), p).error
        assert best_approx(shifted, (2,), p).error == pytest.approx(base, rel=1e-4, abs=tol)
        assert best_approx(scaled, (2,), p).error == pytest.approx(2.5 * base, rel=1e-4, abs=tol)


def test_best_approx_small_p_internal_consistency():
    f = lambda X: np.abs(X[..., 0] - 0.37) ** 0.5
    g = sample_on_grid(f, Box.unit(1), 64)
    res = best_approx(g, (2,), 0.5, seed=9)
    diag = res.diagnostics
    assert diag["method"] == "smoothed-multistart"
    assert diag["starts"] == 9
    # returned error never exceeds any tried start
    assert res.error <= min(diag["start_errors"]) + 1e-12
    # and never exceeds the p = 2 solution evaluated in the p quasi-norm
    proj = best_approx(g, (2,), 2.0).polynomial
    resid = GridFunction(g.box, g.values - proj(g.midpoints()))
    assert res.error <= lp_quasinorm(resid, 0.5) + 1e-12


def test_fits_of_data_far_below_one_scale_with_the_data():
    # the p < 1 multistart and IRLS take their tolerances in the data's
    # units, so scaling by 2^-k (exact in binary) leaves E(f) / 2^-k; with
    # the old 1e-30 clamps on those scales it moved by up to 0.17 at p = 1/2.
    # The limit is the smoothing ladder's floor sqrt(smallest normal) =
    # 2^-511, which 1e-8 * max|values| (0.59 2^-k here) meets near k = 484
    g = sample_on_grid(get_function("holder_half_2d"), Box.unit(2), 16)
    for p, rel in ((0.5, 0.0), (1.5, 1e-13)):
        base = best_approx(g, (2, 2), p).error
        for k in (110, 130, 400, 480):
            scaled = GridFunction(g.box, g.values * 2.0**-k)
            got = best_approx(scaled, (2, 2), p).error * 2.0**k
            assert abs(got - base) <= rel * base, (p, k, got, base)


def test_small_p_converged_reports_the_stage_stop_test(monkeypatch):
    g = sample_on_grid(get_function("holder_half_2d"), Box.unit(2), 16)
    assert best_approx(g, (2, 2), 0.5).converged
    # one step per stage cannot meet the relative-decrease stop test
    monkeypatch.setattr(polyapprox, "_STAGE_ITER", 1)
    assert not best_approx(g, (2, 2), 0.5).converged


def _oracle_weighted_lstsq(design, target, weights):
    sw = np.sqrt(weights)
    sol, *_ = np.linalg.lstsq(design * sw[:, None], target * sw, rcond=None)
    return sol


def _oracle_smoothed_descent(design, target, c0, p, eps, cv):
    c = c0.copy()
    res = target - design @ c
    obj = float(((res**2 + eps**2) ** (p / 2.0)).sum() * cv)
    it = 0
    for it in range(1, polyapprox._STAGE_ITER + 1):
        w = (res**2 + eps**2) ** (p / 2.0 - 1.0)
        c = _oracle_weighted_lstsq(design, target, w)
        res = target - design @ c
        new_obj = float(((res**2 + eps**2) ** (p / 2.0)).sum() * cv)
        if abs(obj - new_obj) <= 1e-10 * max(new_obj, 1e-30):
            return c, it, True
        obj = new_obj
    return c, it, False


def _oracle_multistart(g, r, p, seed):
    """The 0 < p < 1 solver as it was before its starts ran in lockstep:
    one start after another, one SVD least-squares solve per step.
    Returns ``(error, converged, start_errors, start_iterations)``."""
    bases = [
        polyapprox._axis_basis(g.box.lower[i], g.box.upper[i], g.spec[i], r[i])[0]
        for i in range(g.box.dim)
    ]
    cv = g.cell_volume
    # the solver's projection, so every start is the solver's start
    weighted = [B * cw for B, cw in zip(bases, g.cell_widths)]
    c2 = polyapprox._contract_stack(g.values[None], weighted)[0]
    scale = float(np.abs(g.values).max(initial=0.0))
    design = functools.reduce(np.kron, bases)
    target = g.values.reshape(-1)
    c_flat = c2.reshape(-1)

    rng = np.random.default_rng(seed)
    res2 = target - design @ c_flat
    err2 = math.sqrt(float((res2**2).sum() * cv))
    amp = 0.5 * (err2 + 1e-3 * max(scale, 1e-30))
    starts = [c_flat]
    for _ in range(polyapprox._N_STARTS):
        starts.append(c_flat + rng.standard_normal(c_flat.shape) * amp)
    best_obj = math.inf
    best_stopped = False
    per_start = []
    start_iters = []
    eps_ladder = [10.0**-k for k in range(2, 9)]
    eps_scale = max(scale, 1e-30)
    for c0 in starts:
        c = c0.copy()
        start_iters.append(0)
        for eps_rel in eps_ladder:
            c, iters, stopped = _oracle_smoothed_descent(
                design, target, c, p, eps_rel * eps_scale, cv
            )
            start_iters[-1] += iters
        obj = float((np.abs(target - design @ c) ** p).sum() * cv)
        per_start.append(obj ** (1.0 / p))
        if obj < best_obj:
            best_obj = obj
            best_stopped = stopped
    return best_obj ** (1.0 / p), best_stopped, per_start, start_iters


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_identity_stack_contraction_is_the_kronecker_design(dim):
    # best_approx's dense design for IRLS and the exchange method
    for r in itertools.product(range(1, 5), repeat=dim):
        bases = [
            polyapprox._axis_basis(0.1 * i, 1.0 + 0.3 * i, 2 * ri + 1 + i, ri)[0]
            for i, ri in enumerate(r)
        ]
        k = math.prod(r)
        stack = polyapprox._contract_stack(np.eye(k).reshape(k, *r), [B.T for B in bases])
        design = stack.reshape(k, -1).T
        kron = functools.reduce(np.kron, bases)
        assert design.shape == kron.shape
        assert design.tobytes() == kron.tobytes()


# every case has more than one coefficient: one coefficient is the exact
# best constant, not the descent
LOCKSTEP_CASES = [
    ("holder_half_1d", 64, (2,)),
    ("holder_half_2d", 16, (1, 2)),
    ("holder_half_2d", 16, (2, 2)),
    ("holder_half_2d", 64, (2, 1)),
    ("holder_half_2d", 64, (2, 2)),
    ("exp_sum_3d", 8, (2, 1, 2)),
]


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("case", LOCKSTEP_CASES, ids=_case_id)
def test_lockstep_descent_matches_per_start_oracle(case, seed):
    name, grid, r = case
    g = sample_on_grid(get_function(name), Box.unit(len(r)), grid)
    res = best_approx(g, r, 0.5, seed=seed)
    error, converged, start_errors, start_iters = _oracle_multistart(g, r, 0.5, seed)
    diag = res.diagnostics
    # the same work: every start takes as many steps as it did alone
    assert diag["start_iterations"] == start_iters
    assert diag["iterations"] == sum(start_iters)
    assert res.converged == converged
    assert diag["start_errors"] == pytest.approx(start_errors, rel=1e-9, abs=1e-12)
    assert res.error <= error * (1.0 + 1e-9) + 1e-12


K1_CASES = [
    ("holder_half_1d", 64, (1,)),
    ("abs_kink_1d", 64, (1,)),
    ("holder_half_2d", 16, (1, 1)),
    ("trig_rand_2d_a", 16, (1, 1)),
    ("exp_sum_3d", 8, (1, 1, 1)),
]


@pytest.mark.parametrize("case", K1_CASES, ids=_case_id)
def test_small_p_with_one_coefficient_is_the_exact_best_constant(case):
    # at every p, despite the name: a fit by constants is best_constant's
    name, grid, r = case
    g = sample_on_grid(get_function(name), Box.unit(len(r)), grid)
    for p in (0.1, 0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0, 50.0, math.inf):
        res = best_approx(g, r, p, seed=3)
        assert res.polynomial.coeffs.shape == r
        got = (float(res.polynomial.coeffs.reshape(-1)[0]), res.error)
        assert _same_bits(got, best_constant(g, p)), (name, p)
        assert res.converged
        assert res.diagnostics == {
            "method": "exact-constant",
            "iterations": 0,
            "lower_bound": res.error,
            "gap": 0.0,
        }
        if p < 1.0:
            # the optimum: never above what the multistart reached
            error, *_ = _oracle_multistart(g, r, p, 3)
            assert res.error <= error * (1.0 + 1e-12), (name, p)


# Members of P_r with more than one coefficient, r at or above their
# degree bounds: the d = 1 and d = 2 corpus members and a trilinear
# polynomial on the unit cube.
_TRILINEAR = TensorPolynomial(
    np.array([[[0.3, -1.0], [0.5, 0.25]], [[1.5, -0.75], [2.0, -0.5]]])
)
MEMBER_CASES = [
    ("const_1d", 16, (2,)),
    ("linear_1d", 16, (2,)),
    ("linear_1d", 32, (3,)),
    ("square_1d", 16, (3,)),
    ("cubic_1d", 32, (4,)),
    ("cubic_1d", 32, (6,)),
    ("const_2d", 8, (2, 2)),
    ("bilinear_2d", 16, (2, 2)),
    ("bilinear_2d", 64, (3, 2)),
    ("cubic_2d", 16, (4, 4)),
    ("trilinear_3d", 8, (2, 2, 2)),
    ("trilinear_3d", 8, (3, 2, 2)),
]


def _projection(g, r):
    """The solver's p = 2 projection: its monomial coefficients and residual."""
    axes = [
        polyapprox._axis_basis(g.box.lower[i], g.box.upper[i], g.spec[i], r[i])
        for i in range(g.box.dim)
    ]
    weighted = [B * cw for (B, _), cw in zip(axes, g.cell_widths)]
    c2 = polyapprox._contract_stack(g.values[None], weighted)[0]
    res2 = g.values - polyapprox._contract_stack(c2[None], [B.T for B, _ in axes])[0]
    mono = polyapprox._contract_stack(c2[None], [M.T for _, M in axes])[0]
    return mono, res2


@pytest.mark.parametrize("case", MEMBER_CASES, ids=_case_id)
def test_data_in_p_r_is_its_projection_at_every_p(case):
    # E_r(f)_p = 0 for f in P_r: the projection is exact to rounding at
    # every p, certified by the lower bound 0, whatever the solver seed
    name, grid, r = case
    fn = _TRILINEAR if name == "trilinear_3d" else get_function(name)
    g = sample_on_grid(fn, Box.unit(len(r)), grid)
    mono, res2 = _projection(g, r)
    for p in (0.25, 0.5, 1.0, 1.5, 3.0, 50.0, math.inf):
        err = polyapprox._lp(np.abs(res2), g.cell_volume, p)
        for seed in range(4):
            res = best_approx(g, r, p, seed=seed)
            assert np.array_equal(res.polynomial.coeffs, mono), (name, p, seed)
            assert _same_bits((res.error,), (err,)), (name, p, seed)
            assert res.converged
            assert res.diagnostics == {
                "method": "projection",
                "iterations": 0,
                "lower_bound": 0.0,
                "gap": 0.0,
            }


def test_the_projection_certifies_itself_at_p_two():
    # at p = 2 the projection is the discrete optimum: its error is its
    # own lower bound
    for name in ("exp_sum_2d", "holder_half_2d", "bilinear_2d"):
        g = sample_on_grid(get_function(name), Box.unit(2), 16)
        res = best_approx(g, (2, 2), 2.0)
        assert res.diagnostics == {
            "method": "projection",
            "iterations": 0,
            "lower_bound": res.error,
            "gap": 0.0,
        }


def test_small_p_constant_fits_are_invariant_under_shift_and_scale():
    # E(lam f + c) = |lam| E(f) for the best constant at p = 1/2,
    # r = (1, 1), on the d = 2 corpus at 64^2.  One rounding allowance, in
    # the p-th powers: against the same sample value, the computed
    # residuals of lam f + c and |lam| times those of f differ by at most
    # delta = 3 eps (|c| + |lam| max|f|) (the rounding of the shifted or
    # scaled values and of each subtraction), and
    # | |a|^p - |b|^p | <= |a - b|^p for p <= 1, so every score, and the
    # least one, moves by at most |Q| delta^p; the n-term sums and the
    # powers add at most n eps relative.
    p, r, box = 0.5, (1, 1), Box.unit(2)
    eps = np.finfo(float).eps
    for e in corpus_entries(dim=2):
        g = sample_on_grid(get_function(e.name), box, 64)
        base = best_approx(g, r, p).error
        top = float(np.abs(g.values).max())
        for c, lam in ((10.0, 1.0), (1000.0, 1.0), (0.0, -3.0), (0.0, 2.0**-10)):
            got = best_approx(GridFunction(box, lam * g.values + c), r, p).error ** p
            want = (abs(lam) * base) ** p
            delta = 3.0 * eps * (abs(c) + abs(lam) * top)
            allowance = box.volume * delta**p + g.values.size * eps * max(got, want)
            assert abs(got - want) <= allowance, (e.name, c, lam, got, want)


def test_best_approx_rejects_underdetermined_grid():
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 3)
    with pytest.raises(ValueError):
        best_approx(g, (2,), 2.0)


def test_taylor_polynomial_examples():
    # linear function reproduced exactly at order 2
    lin = TensorPolynomial(np.array([0.5, 2.0]))
    assert np.allclose(taylor_polynomial(lin.derivative, (0.3,), (2,)).coeffs, lin.coeffs, atol=1e-12)

    exp1 = lambda s: (lambda X: np.exp(X[..., 0]))
    assert np.allclose(taylor_polynomial(exp1, (0.0,), (2,)).coeffs, [1.0, 1.0])

    exp2 = lambda s: (lambda X: np.exp(X[..., 0] + X[..., 1]))
    assert np.allclose(
        taylor_polynomial(exp2, (0.0, 0.0), (2, 2)).coeffs, [[1.0, 1.0], [1.0, 1.0]]
    )


def test_taylor_polynomial_reproduces_members_coefficientwise():
    rng = np.random.default_rng(6)
    phi = TensorPolynomial.random((3, 2), rng)
    got = taylor_polynomial(phi.derivative, (0.4, 0.7), (3, 2))
    assert np.allclose(got.coeffs, phi.coeffs, atol=1e-12)


def test_taylor_remainder_bracket_oracles():
    rng = np.random.default_rng(7)
    phi = TensorPolynomial.random((2, 2), rng)
    assert taylor_remainder_bound(phi.derivative, (2, 2), 1.0, Box.unit(2), 16) <= 1e-12

    delta = 0.5
    exp1 = lambda s: (lambda X: np.exp(X[..., 0]))
    got = taylor_remainder_bound(exp1, (2,), math.inf, Box((0.0,), (delta,)), 512)
    assert got == pytest.approx(delta**2 * math.exp(delta), rel=1e-2)

    exp2 = lambda s: (lambda X: np.exp(X[..., 0] + X[..., 1]))
    got = taylor_remainder_bound(exp2, (1, 1), math.inf, Box.cube(0.0, delta, 2), 256)
    expect = (2 * delta + delta**2) * math.exp(2 * delta)
    assert got == pytest.approx(expect, rel=1e-2)


def test_taylor_remainder_rejects_small_p():
    exp1 = lambda s: (lambda X: np.exp(X[..., 0]))
    with pytest.raises(ValueError, match="p >= 1"):
        taylor_remainder_bound(exp1, (2,), 0.5, Box.unit(1))


def test_best_constant_examples():
    g = sample_on_grid(lambda X: np.full(X.shape[:-1], 1.3), Box.unit(1), 32)
    beta, err = best_constant(g, 1.0)
    assert beta == 1.3 and err == 0.0

    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 1024)
    beta, err = best_constant(g, 1.0)
    assert beta == pytest.approx(0.5, abs=1e-3)
    assert err == pytest.approx(0.25, abs=1e-3)


def test_best_constant_exact_for_p_above_one():
    g = GridFunction(Box.unit(1), np.array([0.0, 0.0, 1.0]))
    beta, err = best_constant(g, 2.0)
    assert beta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert err == pytest.approx(math.sqrt(2.0 / 9.0), rel=1e-14)
    beta, err = best_constant(g, math.inf)
    assert (beta, err) == (0.5, 0.5)
    # p = 3: 2 b^3 + (1 - b)^3 is least at b = 1 / (1 + sqrt 2)
    beta, _ = best_constant(g, 3.0)
    assert beta == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)), rel=1e-12)


def test_best_constant_p3_matches_dense_search():
    g = sample_on_grid(get_function("exp_sum_2d"), Box.unit(2), 16)
    beta, err = best_constant(g, 3.0)
    v = g.values.reshape(-1)
    grid = np.linspace(v.min(), v.max(), 20001)
    objective = (np.abs(v[None, :] - grid[:, None]) ** 3).sum(axis=1) * g.cell_volume
    i = int(np.argmin(objective))
    assert err <= objective[i] ** (1.0 / 3.0) * (1.0 + 1e-12)
    assert beta == pytest.approx(grid[i], abs=2.0 * (grid[1] - grid[0]))


def test_best_constant_brute_force_value_scan():
    g = sample_on_grid(lambda X: X[..., 0] + X[..., 1], Box.unit(2), 16)
    beta, err = best_constant(g, 1.0)
    assert beta == pytest.approx(1.0, abs=1e-12)
    # scanning every sampled value cannot beat the returned error
    values = np.unique(g.values)
    brute = min(
        lp_quasinorm(GridFunction(g.box, g.values - b), 1.0) for b in values
    )
    assert err == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("p", (0.5, 0.25))
def test_best_constant_scan_is_exact_in_small_memory(p):
    g = sample_on_grid(get_function("holder_half_2d"), Box.unit(2), 64)
    tracemalloc.start()
    try:
        got = best_constant(g, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole n x n table at once (128 MB here) picks the same value
    v = g.values.reshape(-1)
    table = v[None, :] - v[:, None]
    np.abs(table, out=table)
    table **= p
    scores = table.sum(axis=1) * g.cell_volume
    beta = float(v[int(np.argmin(scores))])
    assert got == (beta, lp_quasinorm(GridFunction(g.box, g.values - beta), p))
    assert peak < 8 * 2**20


def _whole_table_constant(g, p):
    """The oracle of the p < 1 best constant: the argmin over the whole
    n x n table of ``|v_j - v_i|^p``, summed along rows, times the cell
    volume; argmin takes the first row-major index on a tie."""
    v = g.values.reshape(-1)
    table = np.abs(v[None, :] - v[:, None]) ** p
    beta = float(v[int(np.argmin(table.sum(axis=1) * g.cell_volume))])
    return beta, lp_quasinorm(GridFunction(g.box, g.values - beta), p)


def _same_bits(got, want):
    return got == want and [math.copysign(1.0, x) for x in got] == [
        math.copysign(1.0, x) for x in want
    ]


@pytest.mark.parametrize("grid", (16, 32))
def test_best_constant_below_one_is_the_whole_table_argmin_on_the_corpus(grid):
    for box in (Box.unit(2), Box.cube(0.0, 0.5, 2)):
        for e in corpus_entries(dim=2):
            g = sample_on_grid(get_function(e.name), box, grid)
            for p in (0.1, 0.25, 0.5, 0.9):
                got, want = best_constant(g, p), _whole_table_constant(g, p)
                assert _same_bits(got, want), (e.name, box, p)


def _shuffled_grid(rng, values, box=None):
    values = np.array(values, float)
    rng.shuffle(values)
    side = math.isqrt(values.size)
    return GridFunction(box or Box.unit(2), values.reshape(side, side))


def test_best_constant_below_one_keeps_the_tie_rule_and_the_sign_of_zero():
    rng = np.random.default_rng(5)
    grids = [
        # many ties
        _shuffled_grid(rng, rng.integers(-3, 4, 30 * 30)),
        _shuffled_grid(rng, np.round(rng.standard_normal(32 * 32), 1)),
        # +0.0 and -0.0 are one value; the first of either stands for it
        _shuffled_grid(rng, rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], 24 * 24)),
        _shuffled_grid(rng, np.where(rng.random(20 * 20) < 0.6, -0.0, rng.standard_normal(20 * 20))),
        # one value: the first entry, whichever zero it is
        *(
            GridFunction(Box.unit(2), np.concatenate(([z], rng.choice([0.0, -0.0], 399))).reshape(20, 20))
            for z in (0.0, -0.0)
        ),
        # values spanning 1e-30 to 1e30, of both signs
        _shuffled_grid(rng, 10.0 ** rng.uniform(-30, 30, 32 * 32) * rng.choice([-1, 1], 32 * 32)),
    ]
    # two distinct values with exactly equal scores: the first index wins
    for first in (0.0, 1.0):
        values = np.array([0.0] * 288 + [1.0] * 288)
        rng.shuffle(values)
        values[np.flatnonzero(values == first)[0]], values[0] = values[0], first
        grids.append(GridFunction(Box.unit(2), values.reshape(24, 24)))
    # n = 1
    grids.append(GridFunction(Box.unit(2), np.array([[-0.0]])))
    grids.append(GridFunction(Box.unit(2), np.array([[3.5]])))
    # a cell volume that makes every score subnormal
    tiny_box = Box((0.0, 0.0), (1e-160, 1e-160))
    grids.append(_shuffled_grid(rng, rng.standard_normal(32 * 32), tiny_box))
    assert grids[-1].cell_volume < np.finfo(float).tiny
    for g in grids:
        for p in (0.1, 0.25, 0.5, 0.9):
            assert _same_bits(best_constant(g, p), _whole_table_constant(g, p)), (g.spec, p)
    # the two tied values: each wins where it comes first
    assert [best_constant(grids[k], 0.5)[0] for k in (7, 8)] == [0.0, 1.0]


@pytest.mark.parametrize("grid", (16, 64))
def test_best_constant_median_matches_the_full_scan(grid):
    for box in (Box.unit(2), Box.cube(0.0, 0.5, 2)):
        for e in corpus_entries(dim=2):
            g = sample_on_grid(get_function(e.name), box, grid)
            beta, err = best_constant(g, 1.0)
            v = g.values.reshape(-1)
            # the lower median
            assert beta == float(np.sort(v)[(v.size - 1) // 2])
            # the least error over every sample value, 256 table rows at a time
            scan = min(
                float(np.abs(v[None, :] - v[i : i + 256, None]).sum(axis=1).min())
                for i in range(0, v.size, 256)
            )
            assert err == pytest.approx(scan * g.cell_volume, rel=1e-12, abs=1e-300)


def test_piecewise_constant_examples():
    g = sample_on_grid(lambda X: np.full(X.shape[:-1], -0.4), Box.unit(2), 8)
    _, err = piecewise_constant_approx(g, 2, 1.0)
    assert err == 0.0

    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 512)
    _, err = piecewise_constant_approx(g, 2, 1.0)
    assert err == pytest.approx(1.0 / 8.0, abs=1e-3)

    f = lambda X: np.sin(np.pi * X[..., 0]) * np.sin(np.pi * X[..., 1])
    g = sample_on_grid(f, Box.unit(2), 32)
    _, err2 = piecewise_constant_approx(g, 2, 1.0)
    _, err4 = piecewise_constant_approx(g, 4, 1.0)
    assert err4 < err2


def test_piecewise_constant_power_sum_identity():
    f = lambda X: np.exp(X[..., 0]) * X[..., 1]
    g = sample_on_grid(f, Box.unit(2), 16)
    pw, total = piecewise_constant_approx(g, 2, 0.5)
    acc = 0.0
    for idx in np.ndindex(pw.splits):
        sl = tuple(slice(i * 8, (i + 1) * 8) for i in idx)
        lo = np.array([0.0, 0.0]) + np.array(idx) * 0.5
        cell = GridFunction(Box(tuple(lo), tuple(lo + 0.5)), g.values[sl])
        acc += lp_quasinorm(
            GridFunction(cell.box, cell.values - pw.betas[idx]), 0.5
        ) ** 0.5
    assert total**0.5 == pytest.approx(acc, rel=1e-12)


@pytest.mark.parametrize("splits", (2, 4))
def test_piecewise_constant_below_one_is_the_per_cell_whole_table_argmin(splits):
    p = 0.5
    for name in ("holder_one_2d", "trig_rand_2d_a"):
        g = sample_on_grid(get_function(name), Box.unit(2), 64)
        pw, total = piecewise_constant_approx(g, splits, p)
        errors = np.zeros((splits, splits))
        sub = 64 // splits
        for idx, cell_box in _cells(g.box, splits):
            cell = GridFunction(cell_box, g.values[tuple(slice(i * sub, (i + 1) * sub) for i in idx)])
            beta, errors[idx] = _whole_table_constant(cell, p)
            assert _same_bits((float(pw.betas[idx]),), (beta,)), (name, idx)
        assert total == np.power(float((errors**p).sum()), 1.0 / p)


def test_piecewise_constant_requires_divisible_grid():
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 10)
    with pytest.raises(ValueError):
        piecewise_constant_approx(g, 3, 1.0)


def test_piecewise_constant_evaluation():
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 8)
    pw, _ = piecewise_constant_approx(g, 2, math.inf)
    assert pw(np.array([0.1])) == pytest.approx(0.25, abs=0.3)
    left = pw(np.array([[0.2], [0.9]]))
    assert left.shape == (2,)


def test_large_p_errors_lie_between_the_bounds_from_the_sup_error():
    # On a unit-volume box every residual has cv^(1/p) max|res| <= ||res||_p
    # <= max|res|, so cv^(1/p) E_inf <= E_p <= E_inf.  The d = 1, 2 corpus
    # without its tensor polynomials, r = (k, ..., k) for k = 1, 2, 3, at 16
    # and 32 points per axis: 288 fits.
    for d in (1, 2):
        for e in corpus_entries(dim=d):
            if e.tag == "member-of-Pr":
                continue
            for grid in (16, 32):
                g = sample_on_grid(get_function(e.name), Box.unit(d), grid)
                for r in ((k,) * d for k in (1, 2, 3)):
                    e_inf = best_approx(g, r, math.inf).error
                    for p in (30.0, 50.0, 400.0):
                        e_p = best_approx(g, r, p).error
                        low = g.cell_volume ** (1.0 / p) * e_inf
                        assert low * (1.0 - 1e-9) <= e_p <= e_inf * (1.0 + 1e-9), (e.name, grid, r, p)


@pytest.mark.parametrize("p", (50.0, 100.0, 400.0))
def test_best_constant_at_large_p_is_within_the_sup_bound(p):
    # the midrange's L_p error is at most E_inf volume^(1/p), so the best one's is too
    box = Box((0.0,), (10.0,))
    g = sample_on_grid(get_function("exp_sum_1d"), box, 16)
    _, e_inf = best_constant(g, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, err = best_constant(g, p)
    assert err <= e_inf * box.volume ** (1.0 / p)


def test_best_constant_error_of_a_residual_beyond_the_double_range_is_inf():
    g = GridFunction(Box.unit(1), np.array([1e308, -1e308]))
    for p in (0.5, 1.0):
        with np.errstate(over="ignore"):
            _, err = best_constant(g, p)
        assert err == math.inf, p


@pytest.mark.parametrize("p", (200.0, 400.0))
def test_piecewise_totals_at_large_p_are_finite_and_within_the_sup_bound(p):
    box = Box((0.0, 0.0), (10.0, 10.0))
    g = sample_on_grid(get_function("exp_sum_2d"), box, 16)
    _, e_inf = piecewise_constant_approx(g, 2, math.inf)
    _, total = piecewise_constant_approx(g, 2, p)
    assert math.isfinite(total)
    assert total <= e_inf * box.volume ** (1.0 / p)


def test_fits_at_p_of_at_least_one_are_invariant_under_adding_p_r_and_scaling():
    # E(f + c phi) = E(f) for phi in P_r and E(lam f) = |lam| E(f), on the
    # d = 2 corpus at 64^2.  One allowance: 64 eps max|data|, where data are
    # the samples of f + c phi or lam f.  Shifts at p = 1 are tested at
    # r = (1, 1), where the fit is best_constant's lower median, and left
    # out at r = (2, 2): the vertex descent perturbs its target by
    # 1e-11 max|values|, so its answer moves with c (spline_prod_2d,
    # c = 1e6: 2.1e-7, about 3.8 allowances).
    eps = np.finfo(float).eps
    box = Box.unit(2)
    for e in corpus_entries(dim=2):
        g = sample_on_grid(get_function(e.name), box, 64)
        x = g.midpoints()
        for r in ((1, 1), (2, 2)):
            phi = TensorPolynomial(np.ones(r))(x)
            base = {p: best_approx(g, r, p).error for p in (1.0, 1.5, 2.0, math.inf)}
            shift_ps = tuple(base) if r == (1, 1) else (1.5, 2.0, math.inf)
            cases = [(g.values + c * phi, 1.0, shift_ps) for c in (1e3, 1e6)]
            cases += [(lam * g.values, abs(lam), tuple(base)) for lam in (-3.0, 2.0**-10)]
            for data, factor, ps in cases:
                allowance = 64.0 * eps * float(np.abs(data).max())
                for p in ps:
                    got = best_approx(GridFunction(box, data), r, p).error
                    assert abs(got - factor * base[p]) <= allowance, (e.name, r, p, factor)


def _constant_or_member(task):
    return task["r"] == [1, 1] or (
        task["r"] == [2, 2] and task["fn"] in ("bilinear_2d", "const_2d")
    )


def test_solver_tasks_of_the_benchmark_pass_its_reference(monkeypatch):
    # perfbench/ is not a package, so its task module is loaded by file
    # path (and registered while the test runs, as its dataclasses need);
    # every solve-exact fit, and every sweep workload's Whitney report by
    # constants (r = (1, 1)) or of a member of P_r at r = (2, 2), and every
    # sweep-coarse equivalence and superadditivity report, must keep within
    # the shipped reference
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tasks.py"
    spec = importlib.util.spec_from_file_location("perfbench_tasks", path)
    tasks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tasks)
    spec.loader.exec_module(tasks)
    reference = tasks.load_reference()
    chosen = [
        ("solve-exact", kind, lambda task: True)
        for kind in ("best_approx", "best_constant", "piecewise")
    ] + [
        (workload, "whitney", _constant_or_member)
        for workload in ("sweep-coarse", "sweep-fine")
    ] + [
        # every step norm and mean is domain._lp's: the moved mean sides
        ("sweep-coarse", kind, lambda task: True)
        for kind in ("equivalence", "superadditivity")
    ]
    failed = []
    ran = Counter()
    for workload, kind, keep in chosen:
        inputs = tasks.Inputs(workload)
        for task in filter(keep, tasks.pool(workload)[kind]):
            tid = tasks.task_id(workload, task)
            out = tasks.run_task(inputs, task, get_function)
            failed += [(tid, why) for why in tasks.check_output(kind, out, reference.get(tid))]
            ran[kind] += 1
    assert failed == []
    # 166 by constants, 8 + 12 of the members
    assert ran["whitney"] == 186
    assert (ran["equivalence"], ran["superadditivity"]) == (224, 84)
