import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsmooth import (
    CorpusFunction,
    ModulusRequest,
    PiecewiseConstant,
    TensorPolynomial,
    VerifierSettings,
    best_approx,
    best_constant,
    constant_bound_report,
    difference_field,
    estimate_constants,
    get_function,
    halving_identity,
    lower_whitney_constant,
    marchaud_report,
    mixed_difference,
    piecewise_constant_approx,
    reproduction_identity_gap,
    reproduction_residual,
    suite_identities,
    superadditivity_report,
    taylor_polynomial,
    taylor_remainder_bound,
    taylor_report,
    unit_decomposition,
    whitney_report,
)
from mixsmooth.corpus import corpus_entries
from mixsmooth.differences import mean_modulus_sweep, sup_modulus_sweep, total_sup_terms
from mixsmooth.domain import (
    _CHUNK_POINTS,
    Box,
    GridFunction,
    _orders,
    grid_points,
    lp_quasinorm,
    nonempty_axis_subsets,
    normalize_grid,
    restrict_order,
    sample_on_grid,
    shrink_domain,
)


def test_box_size_examples():
    assert np.allclose(Box.unit(2).size, [1.0, 1.0])
    assert np.allclose(Box((0.0, 0.0), (1.0, 0.5)).size, [1.0, 0.5])
    assert np.allclose(Box((-1.0,), (1.0,)).size, [2.0])


def test_box_validation():
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))
    with pytest.raises(ValueError):
        Box((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        Box((0.0,), (math.inf,))


def test_shrink_examples():
    assert shrink_domain(Box.unit(1), (0.3,)) == Box((0.0,), (0.7,))
    assert shrink_domain(Box.unit(1), (-0.3,)) == Box((0.3,), (1.0,))
    assert shrink_domain(Box.unit(1), (1.5,)) is None
    # exactly the side length degenerates to measure zero -> empty
    assert shrink_domain(Box.unit(1), (1.0,)) is None
    assert shrink_domain(Box.unit(1), (-1.0,)) is None
    assert shrink_domain(Box((0.0, 0.0), (1.0, 0.5)), (0.25, -0.5)) is None
    # a -0.0 shift moves no side, negative shifts move the lower sides, 3-d
    q = Box((0.0, -1.0), (2.0, 1.0))
    same = shrink_domain(q, (-0.0, -0.0))
    assert same == q and math.copysign(1.0, same.lower[0]) == 1.0
    assert shrink_domain(q, (-0.5, -0.25)) == Box((0.5, -0.75), (2.0, 1.0))
    assert shrink_domain(q, (-1.5, 1.75)) == Box((1.5, -1.0), (2.0, -0.75))
    cube = Box((0.0, 0.0, -1.0), (1.0, 2.0, 3.0))
    assert shrink_domain(cube, (0.25, -0.5, 3.0)) == Box((0.0, 0.5, -1.0), (0.75, 2.0, 0.0))
    assert shrink_domain(cube, (0.25, -0.5, -4.0)) is None
    with pytest.raises(ValueError):
        shrink_domain(cube, (0.25, -0.5))


def test_shrink_zero_is_identity_and_monotone():
    q = Box((0.0, -1.0), (2.0, 1.0))
    assert shrink_domain(q, (0.0, 0.0)) == q
    small = shrink_domain(q, (0.5, -0.2))
    big = shrink_domain(q, (1.0, -0.4))
    assert big is not None and small is not None
    assert all(bl >= sl for bl, sl in zip(big.lower, small.lower))
    assert all(bu <= su for bu, su in zip(big.upper, small.upper))


def test_quasinorm_constant_all_p():
    g = sample_on_grid(lambda X: np.ones(X.shape[:-1]), Box.unit(2), 8)
    for p in (0.5, 1.0, 2.0, math.inf):
        assert lp_quasinorm(g, p) == pytest.approx(1.0, abs=1e-14)


def test_quasinorm_linear_oracle_p2():
    # closed form: integral of x^2 over [0,1] is 1/3
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 256)
    assert lp_quasinorm(g, 2.0) == pytest.approx(1.0 / math.sqrt(3.0), abs=2e-5)


def test_quasinorm_linear_oracle_p_half():
    # closed form: integral of sqrt(x) over [0,1] is 2/3, norm is (2/3)^2
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 1024)
    assert lp_quasinorm(g, 0.5) == pytest.approx(4.0 / 9.0, abs=2e-4)


def test_quasinorm_rejects_bad_p_and_empty_is_zero():
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 4)
    with pytest.raises(ValueError):
        lp_quasinorm(g, 0.0)
    with pytest.raises(ValueError):
        lp_quasinorm(g, -1.0)
    assert lp_quasinorm(None, 0.5) == 0.0


def test_quasinorm_power_additive_over_partition():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(16)
    g = GridFunction(Box.unit(1), vals)
    left = GridFunction(Box((0.0,), (0.5,)), vals[:8])
    right = GridFunction(Box((0.5,), (1.0,)), vals[8:])
    for p in (0.5, 1.0, 2.0):
        whole = lp_quasinorm(g, p) ** p
        parts = lp_quasinorm(left, p) ** p + lp_quasinorm(right, p) ** p
        assert whole == pytest.approx(parts, rel=1e-14)


@pytest.mark.parametrize(
    "value, p, box",
    [(1e-3, 400.0, Box.unit(2)), (3.0, 1000.0, Box((0.0, 0.0), (1.0, 2.0)))],
)
def test_quasinorm_of_a_constant_at_large_p_is_exact(value, p, box):
    # |v|^p under- (1e-3^400) or overflows (3^1000); the exact value is
    # |v| * volume^(1/p)
    g = GridFunction(box, np.full((8, 8), value))
    assert lp_quasinorm(g, p) == pytest.approx(value * box.volume ** (1.0 / p), rel=1e-13)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_quasinorm_keeps_the_plain_formula_on_the_corpus(p):
    for entry in corpus_entries(dim=2):
        g = sample_on_grid(entry, Box.unit(2), 16)
        # the root as domain._lp takes it: np.power, not Python's **
        plain = np.power(float((np.abs(g.values) ** p).sum() * g.cell_volume), 1.0 / p)
        assert lp_quasinorm(g, p) == plain, entry.name


@settings(max_examples=25, deadline=None)
@given(st.floats(-10, 10, allow_nan=False), st.floats(0.3, 4.0))
def test_quasinorm_homogeneous(c, p):
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((4, 4))
    g = GridFunction(Box.unit(2), vals)
    scaled = GridFunction(Box.unit(2), c * vals)
    assert lp_quasinorm(scaled, p) == pytest.approx(
        abs(c) * lp_quasinorm(g, p), rel=1e-12, abs=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_quasinorm_power_subadditive_small_p(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(12)
    b = rng.standard_normal(12)
    box = Box.unit(1)
    p = 0.5
    lhs = lp_quasinorm(GridFunction(box, a + b), p) ** p
    rhs = (
        lp_quasinorm(GridFunction(box, a), p) ** p
        + lp_quasinorm(GridFunction(box, b), p) ** p
    )
    assert lhs <= rhs + 1e-12


def test_midpoint_refinement_order():
    # successive-error ratios for a smooth function sit near the
    # second-order value 4; the contract window is [2, 8]
    exact = math.sqrt((math.e**2 - 1.0) / 2.0)
    errors = []
    for n in (16, 32, 64, 128):
        g = sample_on_grid(lambda X: np.exp(X[..., 0]), Box.unit(1), n)
        errors.append(abs(lp_quasinorm(g, 2.0) - exact))
    for a, b in zip(errors, errors[1:]):
        assert 2.0 <= a / b <= 8.0


def test_sample_on_grid_examples():
    g = sample_on_grid(lambda X: np.full(X.shape[:-1], 3.0), Box.unit(2), (2, 3))
    assert np.all(g.values == 3.0)
    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 2)
    assert np.allclose(g.values, [0.25, 0.75])
    g = sample_on_grid(lambda X: X[..., 0] + X[..., 1], Box.unit(2), (1, 1))
    assert g.values.shape == (1, 1)
    assert g.values[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "box, spec",
    [
        (Box((0.2,), (1.7,)), 20000),
        (Box((0.0, -0.5), (1.0, 0.3)), (100, 90)),
        (Box((0.1, 0.0, -1.0), (0.9, 2.0, 1.0)), (24, 20, 21)),
    ],
)
def test_sample_on_grid_calls_f_on_capped_coordinate_major_views(box, spec):
    def f(X):
        return np.sin(3.0 * X[..., 0]) * np.exp(X.sum(axis=-1)) + X[..., -1] ** 2

    calls = []

    def recording(X):
        calls.append((X.shape, [X[..., i].flags.c_contiguous for i in range(X.shape[-1])]))
        return f(X)

    g = sample_on_grid(recording, box, spec)
    n = math.prod(g.spec)
    assert n > _CHUNK_POINTS
    # calls of at most the cap, each a (points, d) view whose coordinate
    # planes are contiguous
    cap = _CHUNK_POINTS
    assert [shape for shape, _ in calls] == [(min(cap, n - j), box.dim) for j in range(0, n, cap)]
    assert all(all(planes) for _, planes in calls)
    # the same bits as one call on grid_points
    assert np.array_equal(g.values, f(grid_points(box, spec)))


def test_sample_on_grid_rejects_nonfinite():
    def blows_up(X):
        with np.errstate(divide="ignore"):
            return 1.0 / (X[..., 0] - X[..., 0])

    with pytest.raises(ValueError):
        sample_on_grid(blows_up, Box.unit(1), 4)


def test_grid_points_row_major_shape():
    pts = grid_points(Box.unit(2), (2, 3))
    assert pts.shape == (2, 3, 2)
    assert pts[0, 0, 0] == pytest.approx(0.25)
    assert pts[0, 1, 1] == pytest.approx(0.5)


def test_nonempty_axis_subsets():
    assert nonempty_axis_subsets(1) == [(0,)]
    assert nonempty_axis_subsets(2) == [(0,), (1,), (0, 1)]
    assert len(nonempty_axis_subsets(3)) == 7


def test_restrict_order():
    assert restrict_order((3, 2, 1), (0, 2)) == (3, 0, 1)
    assert restrict_order((3, 2), ()) == (0, 0)
    assert restrict_order((2, 3), (np.int64(1), 0.0)) == (2, 3)


@pytest.mark.parametrize("axis", [1.5, 0.7, -1, 2, 5, math.nan, math.inf])
def test_restrict_order_rejects_fractional_negative_and_missing_axes(axis):
    # int() read 1.5 as axis 1 and -1 as no axis at all
    with pytest.raises(ValueError, match=rf"axis .*{axis!r}"):
        restrict_order((2, 3), (axis,))
    with pytest.raises(ValueError, match=rf"axis .*{axis!r}"):
        restrict_order((2, 3), (0, axis))


def test_orders_take_whole_numbers_only():
    assert _orders((np.int64(2), 2.0, True)) == (2, 2, 1)
    assert all(type(v) is int for v in _orders((np.int64(2), 2.0, True)))
    assert _orders((0, 3), least=0) == (0, 3)
    for bad, least in [((1.5, 1), 0), ((math.nan, 1), 0), ((math.inf, 1), 0), ((-1, 1), 0), ((0, 1), 1)]:
        with pytest.raises(ValueError):
            _orders(bad, least)


_SETTINGS = VerifierSettings(grid=8, h_samples=3, refine_h=False)
_EXP = get_function("exp_sum_2d")


def test_grid_and_split_counts_take_whole_numbers_only():
    assert normalize_grid(8.0, 2) == (8, 8)
    for bad in (8.5, (8, 4.5), (0, 8)):
        with pytest.raises(ValueError):
            normalize_grid(bad, 2)
    g = sample_on_grid(_EXP, Box.unit(2), 8)
    with pytest.raises(ValueError):
        piecewise_constant_approx(g, 2.5, 1.0)
    with pytest.raises(ValueError):
        superadditivity_report(_EXP, (1, 1), (0.25, 0.25), 1.0, Box.unit(2), 2.5, _SETTINGS)


def _records(reports):
    return [rep.to_record() for rep in reports]


# every public entry point that takes an order or degree vector, as a call
# of that vector whose result compares with ==
_ORDER_CALLS = {
    "best_approx": lambda r: (
        lambda fit: (fit.error, fit.polynomial.coeffs.tolist())
    )(best_approx(sample_on_grid(_EXP, Box.unit(2), 8), r, 1.0)),
    "taylor_polynomial": lambda r: taylor_polynomial(_EXP.derivative, (0.0, 0.0), r).coeffs.tolist(),
    "taylor_remainder_bound": lambda r: taylor_remainder_bound(
        _EXP.derivative, r, 1.0, Box.unit(2), density=8
    ),
    "TensorPolynomial.random": lambda r: TensorPolynomial.random(r, np.random.default_rng(0)).coeffs.tolist(),
    "unit_decomposition": unit_decomposition,
    "reproduction_residual": lambda r: reproduction_residual(_EXP, r, Box.unit(2), [(0.05, 0.05)], 4),
    "reproduction_identity_gap": lambda r: reproduction_identity_gap(_EXP, r, Box.unit(2), [(0.05, 0.05)], 4),
    "whitney_report": lambda r: _records(whitney_report(_EXP, r, 1.0, Box.unit(2), _SETTINGS)),
    "estimate_constants": lambda r: estimate_constants(["exp_sum_2d"], r, [1.0], [8]),
    "superadditivity_report": lambda r: _records(
        superadditivity_report(_EXP, r, (0.25, 0.25), 1.0, Box.unit(2), 2, _SETTINGS)
    ),
    "taylor_report": lambda r: taylor_report(_EXP, r, 1.0, (0.5, 0.25), _SETTINGS).to_record(),
    # Marchaud's two order vectors, one at a time: r[0] = 1.5 makes k = (1.5, 2)
    # and r = (2.5, 2), each of which truncates to a valid pair
    "marchaud_report-k": lambda r: marchaud_report(
        _EXP, (3 - r[0], 2 * r[1]), (2, 2), 0, (0.125, 0.125), 1.0, Box.unit(2), _SETTINGS
    ).to_record(),
    "marchaud_report-r": lambda r: marchaud_report(
        _EXP, (1, 2), (r[0] + 1, 2 * r[1]), 0, (0.125, 0.125), 1.0, Box.unit(2), _SETTINGS
    ).to_record(),
}


@pytest.mark.parametrize("name", sorted(_ORDER_CALLS))
def test_every_order_entry_point_rejects_fractions_and_takes_integral_floats(name):
    call = _ORDER_CALLS[name]
    # a truncating entry point would run 1.5 as order 1
    with pytest.raises(ValueError):
        call((1.5, 1))
    assert call((2.0, 1.0)) == call((2, 1))


_SQUARE = Box.unit(2)


def _sweep(sweep, h_samples, p=1.0):
    return sweep(_EXP, (1, 1), (0.25, 0.25), _SQUARE, density=8, h_samples=h_samples, p_values=[p])


def _identities(**counts):
    counts = {"max_dim": 1, "max_order": 1, "halving_orders": 1, "n_random": 1, **counts}
    return _records(suite_identities(_SETTINGS, **counts))


# every public entry point that takes a scalar count: (the argument's name,
# its least value, a valid value, a call of that count)
_COUNT_CALLS = {
    "marchaud_report-axis": ("axis", 0, 0, lambda v: marchaud_report(
        _EXP, (1, 2), (2, 2), v, (0.125, 0.125), 1.0, _SQUARE, _SETTINGS
    ).to_record()),
    "halving_identity": ("k", 1, 2, halving_identity),
    "estimate_constants": ("grid", 1, 8, lambda v: estimate_constants(["exp_sum_2d"], (1, 1), [1.0], [v])),
    "VerifierSettings": ("h_samples", 3, 3, lambda v: _records(
        whitney_report(_EXP, (1, 1), 1.0, _SQUARE, VerifierSettings(grid=8, h_samples=v))
    )),
    "VerifierSettings-seed": ("seed", 0, 2, lambda v: _records(
        whitney_report(_EXP, (1, 1), 1.0, _SQUARE, VerifierSettings(grid=8, seed=v))
    )),
    "best_approx-seed": ("seed", 0, 2, lambda v: repr(
        best_approx(sample_on_grid(_EXP, _SQUARE, 8), (2, 2), 0.5, seed=v)
    )),
    "estimate_constants-seed": ("seed", 0, 2, lambda v: estimate_constants(
        ["exp_sum_2d"], (1, 1), [1.0], [8], seed=v
    )),
    "ModulusRequest": ("h_samples", 2, 3, lambda v: repr(
        ModulusRequest((1, 1), (0.25, 0.25), 1.0, _SQUARE, h_samples=v, density=8)
    )),
    "sup_modulus_sweep": ("h_samples", 2, 3, lambda v: _sweep(sup_modulus_sweep, v)),
    "mean_modulus_sweep": ("h_samples", 2, 3, lambda v: _sweep(mean_modulus_sweep, v)),
    **{
        f"suite_identities-{name}": (name, 1, 2, lambda v, name=name: _identities(**{name: v}))
        for name in ("max_dim", "max_order", "halving_orders", "n_random")
    },
}


@pytest.mark.parametrize("call_name", sorted(_COUNT_CALLS))
def test_every_count_rejects_fractions_and_takes_integral_floats(call_name):
    name, least, good, call = _COUNT_CALLS[call_name]
    for bad in (good + 0.5, math.nan, math.inf, least - 1):
        with pytest.raises(ValueError, match=name):
            call(bad)
    # repr tells 2 from 2.0 where a count is echoed back
    assert repr(call(float(good))) == repr(call(good))


# every entry point that takes an exponent p, which domain._exponent checks
_EXPONENT_CALLS = {
    "lp_quasinorm": lambda p: lp_quasinorm(sample_on_grid(_EXP, _SQUARE, 8), p),
    "best_approx": lambda p: best_approx(sample_on_grid(_EXP, _SQUARE, 8), (2, 2), p).error,
    "best_constant": lambda p: best_constant(sample_on_grid(_EXP, _SQUARE, 8), p),
    "sup_modulus_sweep": lambda p: _sweep(sup_modulus_sweep, 3, p),
    "lower_whitney_constant": lambda p: lower_whitney_constant((2, 2), p),
}


@pytest.mark.parametrize("call_name", sorted(_EXPONENT_CALLS))
def test_every_exponent_must_be_positive_and_is_named(call_name):
    call = _EXPONENT_CALLS[call_name]
    for bad in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="exponent p must be positive, got"):
            call(bad)
    assert repr(call(2)) == repr(call(2.0))


def test_empty_ladders_and_nan_step_bounds_name_the_argument():
    with pytest.raises(ValueError, match="deltas"):
        taylor_report(_EXP, (1, 1), 1.0, (), _SETTINGS)
    for t in ((math.nan, 0.125), (0.125, math.nan), (0.125, math.inf)):
        with pytest.raises(ValueError, match="step bounds t"):
            marchaud_report(_EXP, (1, 2), (2, 2), 0, t, 1.0, _SQUARE, _SETTINGS)


def _one_number(X):
    return 1.0


def _column(X):
    return np.exp(X[..., :1])


# every entry point that calls a user-supplied function or derivative; the
# sup sweep's steps are whole numbers of cells, so it samples the grid, and
# the mean sweep evaluates stencil clouds
_F_CALLS = {
    "sample_on_grid": lambda f: sample_on_grid(f, _SQUARE, 4),
    "difference_field": lambda f: difference_field(f, (1, 1), (0.1, 0.1), _SQUARE, 4),
    "mixed_difference": lambda f: mixed_difference(f, (1, 1), (0.1, 0.1), (0.3, 0.4)),
    "sup_modulus_sweep": lambda f: sup_modulus_sweep(
        f, (1, 1), (0.5, 0.5), _SQUARE, density=16, h_samples=17, p_values=[1.0]
    ),
    "mean_modulus_sweep": lambda f: mean_modulus_sweep(
        f, (1, 1), (0.25, 0.25), _SQUARE, density=4, h_samples=3, p_values=[1.0]
    ),
    "reproduction_residual": lambda f: reproduction_residual(f, (1, 1), _SQUARE, [(0.05, 0.05)], 4),
    "reproduction_identity_gap": lambda f: reproduction_identity_gap(
        f, (1, 1), _SQUARE, [(0.05, 0.05)], 4
    ),
    "taylor_polynomial": lambda f: taylor_polynomial(lambda s: f, (0.0, 0.0), (2, 2)),
    "taylor_remainder_bound": lambda f: taylor_remainder_bound(lambda s: f, (2, 2), 1.0, _SQUARE, 4),
}


@pytest.mark.parametrize("f", [_one_number, _column])
@pytest.mark.parametrize("name", sorted(_F_CALLS))
def test_every_call_of_f_checks_one_value_per_point(name, f):
    with pytest.raises(ValueError, match="function returned shape"):
        _F_CALLS[name](f)


# the input guards no other test reaches: (a call, its ValueError's message)
_GUARD_CALLS = {
    "best_approx-degrees": (
        lambda: best_approx(sample_on_grid(_EXP, _SQUARE, 8), (2,), 1.0),
        "degree vector must match the box dimension",
    ),
    "TensorPolynomial-nan": (
        lambda: TensorPolynomial(np.array([1.0, math.nan])),
        "polynomial coefficients must be finite",
    ),
    "PiecewiseConstant-shape": (
        lambda: PiecewiseConstant(_SQUARE, (2, 2), np.zeros((2, 3))),
        "betas shape must equal the per-axis split counts",
    ),
    "estimate_constants-empty": (
        lambda: estimate_constants([], (1, 1), [1.0], [8]),
        "corpus selection is empty",
    ),
    "taylor_report-no-derivatives": (
        lambda: taylor_report(get_function("holder_half_2d"), (1, 1), 1.0, (0.5,), _SETTINGS),
        "corpus entry 'holder_half_2d' carries no derivative data",
    ),
    "constant_bound_report-1d": (
        lambda: constant_bound_report(get_function("exp_sum_1d"), 1.0, Box.unit(1), _SETTINGS),
        "the explicit constant form is two-dimensional",
    ),
    "difference_field-step": (
        lambda: difference_field(_EXP, (1, 1), (0.1,), _SQUARE, 8),
        "order and steps must match the box dimension",
    ),
    "total_sup_terms-order": (
        lambda: total_sup_terms(
            _EXP, (1,), (0.1, 0.1), _SQUARE, density=8, h_samples=3, p_values=[1.0]
        ),
        "order must match the box dimension",
    ),
    "shrink_domain-shift": (
        lambda: shrink_domain(_SQUARE, (0.1,)),
        "shift length must match box dimension",
    ),
    "normalize_grid-axes": (
        lambda: normalize_grid((8, 8, 8), 2),
        "grid spec has 3 axes, expected 2",
    ),
    "GridFunction-axes": (
        lambda: GridFunction(_SQUARE, np.zeros(4)),
        "values have 1 axes but the box has dimension 2",
    ),
    "nonempty_axis_subsets-0": (
        lambda: nonempty_axis_subsets(0),
        "dimension must be at least 1",
    ),
    "CorpusFunction-tag": (
        lambda: CorpusFunction("f", 1, _column, "smooth"),
        "unknown smoothness tag 'smooth'",
    ),
}


@pytest.mark.parametrize("name", sorted(_GUARD_CALLS))
def test_every_input_guard_raises_its_message(name):
    call, message = _GUARD_CALLS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
