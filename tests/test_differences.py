import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from mixsmooth import differences, domain
from mixsmooth.corpus import corpus_entries, get_function
from mixsmooth.differences import (
    _step_product,
    ModulusRequest,
    difference_field,
    lower_whitney_constant,
    mean_modulus_sweep,
    mixed_difference,
    modulus_mean,
    modulus_sup,
    sup_modulus_sweep,
    total_mean_terms,
    total_modulus_mean,
    total_modulus_sup,
    total_sup_terms,
)
from mixsmooth.domain import (
    Box,
    GridFunction,
    _bits,
    grid_points,
    lp_quasinorm,
    nonempty_axis_subsets,
    normalize_grid,
    restrict_order,
    sample_on_grid,
)
from mixsmooth.identities import annihilation_residual
from mixsmooth.polyapprox import TensorPolynomial


def test_mixed_difference_annihilates_constants():
    f = lambda X: np.full(X.shape[:-1], 4.2)
    assert mixed_difference(f, (1,), (0.2,), np.array([0.1])) == pytest.approx(0.0, abs=1e-14)


def test_mixed_difference_square_symbolic_oracle():
    # (x+2h)^2 - 2(x+h)^2 + x^2 expands to 2h^2 for every x
    f = lambda X: X[..., 0] ** 2
    for x in (0.0, 0.3, 0.71):
        for h in (0.05, 0.25, -0.1):
            assert mixed_difference(f, (2,), (h,), np.array([x])) == pytest.approx(
                2.0 * h * h, rel=1e-10, abs=1e-12
            )


def test_mixed_difference_bilinear_four_term_oracle():
    f = lambda X: X[..., 0] * X[..., 1]
    for x, y in ((0.0, 0.0), (0.2, 0.7)):
        for h1, h2 in ((0.1, 0.3), (-0.2, 0.05)):
            got = mixed_difference(f, (1, 1), (h1, h2), np.array([x, y]))
            assert got == pytest.approx(h1 * h2, rel=1e-10, abs=1e-13)


def test_order_zero_is_identity():
    f = lambda X: np.sin(X[..., 0])
    x = np.array([0.4])
    assert mixed_difference(f, (0,), (0.2,), x) == pytest.approx(math.sin(0.4))


def test_difference_field_annihilates_space_members():
    rng = np.random.default_rng(0)
    phi = TensorPolynomial.random((2, 3), rng)
    scale = float(np.abs(sample_on_grid(phi, Box.unit(2), 8).values).max())
    field = difference_field(phi, (2, 3), (0.1, 0.07), Box.unit(2), 8)
    assert field is not None
    assert np.abs(field.values).max() <= 1e-9 * max(scale, 1.0)


def test_difference_field_linear_constant_field():
    f = lambda X: X[..., 0]
    field = difference_field(f, (1,), (0.25,), Box.unit(1), 16)
    assert field is not None
    assert field.box == Box((0.0,), (0.75,))
    assert np.allclose(field.values, 0.25)
    # resolution density carried over to the shrunken box
    assert field.spec == (12,)


def test_difference_field_empty_when_shift_exceeds_box():
    f = lambda X: X[..., 0]
    assert difference_field(f, (2,), (0.6,), Box.unit(1), 8) is None


def test_modulus_sup_annihilation_and_linear_oracle():
    req = ModulusRequest(r=(1,), t=(0.3,), p=math.inf, box=Box.unit(1), h_samples=9, density=64)
    assert modulus_sup(req, lambda X: np.full(X.shape[:-1], 2.0)) == 0.0
    # sup over |h| <= t of |h| is t, attained at the endpoint node
    assert modulus_sup(req, lambda X: X[..., 0]) == pytest.approx(0.3, abs=1e-12)


def test_modulus_sup_square_oracle():
    # max over x in [0, 1-h] and |h| <= t of |2xh + h^2| equals 2t - t^2
    req = ModulusRequest(
        r=(1,), t=(0.25,), p=math.inf, box=Box.unit(1), h_samples=17, density=512
    )
    value = modulus_sup(req, lambda X: X[..., 0] ** 2)
    assert value == pytest.approx(2 * 0.25 - 0.25**2, abs=2e-3)


def test_modulus_mean_zero_and_member():
    req = ModulusRequest(r=(2,), t=(0.2,), p=1.0, box=Box.unit(1), h_samples=8, density=32)
    assert modulus_mean(req, lambda X: np.zeros(X.shape[:-1])) == 0.0
    rng = np.random.default_rng(3)
    phi = TensorPolynomial.random((2,), rng)
    assert modulus_mean(req, phi) <= 1e-9 * (1 + np.abs(phi.coeffs).max())


def test_modulus_mean_brute_force_double_integral():
    # independent double Riemann sum at 4x the h and x resolution
    t, p, n_h, density = 0.25, 2.0, 8, 32
    f = lambda X: X[..., 0]
    box = Box.unit(1)
    got = modulus_mean(
        ModulusRequest(r=(1,), t=(t,), p=p, box=box, h_samples=n_h, density=density), f
    )
    acc = 0.0
    m = 4 * n_h
    hw = 2 * t / m
    for j in range(m):
        h = -t + (j + 0.5) * hw
        lo, hi = max(0.0, -h), min(1.0, 1.0 - h)
        nx = 4 * density
        xw = (hi - lo) / nx
        xs = lo + (np.arange(nx) + 0.5) * xw
        acc += np.sum(np.abs(np.full_like(xs, h)) ** p) * xw * hw
    brute = (acc / (2 * t)) ** (1 / p)
    assert got == pytest.approx(brute, rel=1e-2)


def test_modulus_mean_rejects_zero_t_on_active_axis():
    req = ModulusRequest(r=(1,), t=(0.0,), p=1.0, box=Box.unit(1), h_samples=4, density=8)
    with pytest.raises(ValueError):
        modulus_mean(req, lambda X: X[..., 0])


def test_total_modulus_d1_reduces_to_single_term():
    f = lambda X: np.sin(2 * np.pi * X[..., 0])
    box = Box.unit(1)
    total = total_modulus_sup(f, (2,), (0.3,), 2.0, box, density=32, h_samples=9)
    single = modulus_sup(
        ModulusRequest(r=(2,), t=(0.3,), p=2.0, box=box, h_samples=9, density=32), f
    )
    assert total == pytest.approx(single, rel=1e-14)


def test_total_modulus_bilinear_per_term_oracles():
    # f = xy, r = (1,1), p = inf: the three subset terms have closed forms
    f = lambda X: X[..., 0] * X[..., 1]
    box = Box.unit(2)
    t = (0.25, 0.4)
    terms = total_sup_terms(
        f, (1, 1), t, box, density=256, h_samples=9, p_values=[math.inf]
    )
    # axis 0 alone: sup |h1 * y| over the shrunken box, y up to 1 - half cell
    assert terms[(0,)][math.inf] == pytest.approx(t[0], abs=4e-3)
    assert terms[(1,)][math.inf] == pytest.approx(t[1], abs=4e-3)
    assert terms[(0, 1)][math.inf] == pytest.approx(t[0] * t[1], abs=1e-12)
    total = total_modulus_sup(f, (1, 1), t, math.inf, box, density=256, h_samples=9)
    assert total == pytest.approx(sum(v[math.inf] for v in terms.values()), rel=1e-14)


def test_total_sup_terms_sweeps_every_subset_from_a_generator():
    ps = [0.5, 1.0, 2.0, math.inf]
    for name, r in (("exp_sum_2d", (1, 1)), ("exp_sum_3d", (1, 2, 1))):
        f = get_function(name)
        box = Box.unit(f.dim)
        kw = dict(density=8, h_samples=5)
        t = (0.5,) * f.dim
        got = total_sup_terms(f, r, t, box, p_values=(p for p in ps), **kw)
        assert got == total_sup_terms(f, r, t, box, p_values=ps, **kw)
        assert len(got) == 2**f.dim - 1
        assert all(sorted(terms) == ps for terms in got.values())
        got = total_sup_terms(f, r, t, box, p_values=(p for p in ps), nested=True, **kw)
        assert got == total_sup_terms(f, r, t, box, p_values=ps, nested=True, **kw)


def test_mean_sweep_at_inf_is_the_sup_sweep():
    f = get_function("trig_rand_2d_a")
    box = Box.unit(2)
    kw = dict(density=9, h_samples=5)
    t = (0.5, 0.25)
    for r in ((1, 1), (2, 0)):
        got = mean_modulus_sweep(f, r, t, box, p_values=[math.inf, 0.5, 2.0], **kw)
        # the finite exponents first, then p = inf from the sup sweep
        assert list(got) == [0.5, 2.0, math.inf]
        assert got[math.inf] == sup_modulus_sweep(f, r, t, box, p_values=[math.inf], **kw)[math.inf]
        del got[math.inf]
        assert got == mean_modulus_sweep(f, r, t, box, p_values=[0.5, 2.0], **kw)
    terms = total_mean_terms(f, (1, 2), t, box, p_values=[1.0, math.inf], **kw)
    for e, term in terms.items():
        re = tuple(v if i in e else 0 for i, v in enumerate((1, 2)))
        assert term == {
            **mean_modulus_sweep(f, re, t, box, p_values=[1.0], **kw),
            **sup_modulus_sweep(f, re, t, box, p_values=[math.inf], **kw),
        }
    # a zero step bound is refused only where a finite mean is taken
    req = ModulusRequest(r=(1,), t=(0.0,), p=math.inf, box=Box.unit(1), h_samples=4, density=8)
    assert modulus_mean(req, lambda X: X[..., 0]) == 0.0


def test_total_modulus_requires_positive_orders():
    with pytest.raises(ValueError):
        total_modulus_sup(
            lambda X: X[..., 0], (0,), (0.1,), 1.0, Box.unit(1), density=8, h_samples=4
        )


def test_mean_below_sup_on_corpus():
    box = Box.unit(2)
    names = [e for e in corpus_entries(dim=2)][:10]
    for entry in names:
        for p in (0.5, 1.0, 2.0):
            w = total_modulus_mean(
                entry, (1, 1), (0.5, 0.5), p, box, density=12, h_samples=6
            )
            om = total_modulus_sup(
                entry, (1, 1), (0.5, 0.5), p, box, density=12, h_samples=6
            )
            assert w <= om * (1.0 + 1e-3) + 1e-9


def test_modulus_monotone_in_t_on_nested_ladder():
    f = lambda X: np.sin(2 * np.pi * X[..., 0]) * X[..., 1]
    box = Box.unit(2)
    prev = 0.0
    # doubling t alongside 2m-1 samples keeps the old step nodes in the sweep
    for t, m in (((0.125, 0.125), 5), ((0.25, 0.25), 9), ((0.5, 0.5), 17)):
        value = modulus_sup(
            ModulusRequest(r=(1, 1), t=t, p=2.0, box=box, h_samples=m, density=16), f
        )
        assert value >= prev - 1e-12
        prev = value


def test_modulus_reflection_invariance():
    f = lambda X: np.exp(X[..., 0]) * np.cos(X[..., 0])
    g = lambda X: np.exp(1.0 - X[..., 0]) * np.cos(1.0 - X[..., 0])
    req = ModulusRequest(r=(2,), t=(0.3,), p=2.0, box=Box.unit(1), h_samples=9, density=64)
    assert modulus_sup(req, f) == pytest.approx(modulus_sup(req, g), rel=1e-10)


def test_modulus_seminorm_under_space_members():
    rng = np.random.default_rng(8)
    f = lambda X: np.exp(X[..., 0] + X[..., 1])
    phi = TensorPolynomial.random((2, 2), rng)
    shifted = lambda X: f(X) + phi(X)
    req = ModulusRequest(
        r=(2, 2), t=(0.25, 0.25), p=1.0, box=Box.unit(2), h_samples=5, density=16
    )
    a = modulus_sup(req, f)
    b = modulus_sup(req, shifted)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_modulus_sup_matches_plain_loop_brute_force():
    # independent scan, no vectorized shortcuts, same candidate steps
    f = lambda X: np.sin(2.3 * X[..., 0]) + 0.5 * X[..., 0] ** 2
    box = Box.unit(1)
    t, m, density, p = 0.4, 8, 8, 2.0
    got = modulus_sup(
        ModulusRequest(r=(1,), t=(t,), p=p, box=box, h_samples=m, density=density), f
    )
    best = 0.0
    for h in np.linspace(-t, t, m):
        if h == 0.0:
            continue
        lo, hi = max(0.0, -h), min(1.0, 1.0 - h)
        if hi <= lo:
            continue
        n = max(1, math.ceil(density * (hi - lo) - 1e-9))
        w = (hi - lo) / n
        acc = 0.0
        for k in range(n):
            x = lo + (k + 0.5) * w
            fa = float(f(np.array([[x + h]]))[0])
            fb = float(f(np.array([[x]]))[0])
            acc += abs(fa - fb) ** p * w
        best = max(best, acc ** (1 / p))
    assert got == pytest.approx(best, abs=1e-12)


def test_lower_whitney_constant_examples():
    assert lower_whitney_constant((1,), 1.0) == pytest.approx(2.0)
    assert lower_whitney_constant((1,), 0.5) == pytest.approx(4.0)
    assert lower_whitney_constant((1, 1), 1.0) == pytest.approx(8.0)
    assert lower_whitney_constant((2,), math.inf) == pytest.approx(4.0)


def test_lower_whitney_bound_random_space_members():
    # total modulus of f is unchanged by adding any member, so it is
    # bounded by the constant times ||f - phi|| for every phi
    rng = np.random.default_rng(42)
    box = Box.unit(2)
    r = (2, 2)
    for entry in [e for e in corpus_entries(dim=2)][:6]:
        for p in (0.5, 1.0, math.inf):
            const = lower_whitney_constant(r, p)
            omega = total_modulus_sup(
                entry, r, tuple(box.size), p, box, density=16, h_samples=7
            )
            for _ in range(3):
                phi = TensorPolynomial.random(r, rng)
                diff = lambda X, e=entry, q=phi: e(X) - q(X)
                norm = lp_quasinorm(sample_on_grid(diff, box, 16), p)
                assert omega <= const * norm * 1.05 + 1e-9


def test_total_mean_d1_reduces_to_single_mean_term():
    f = lambda X: np.exp(X[..., 0])
    box = Box.unit(1)
    total = total_modulus_mean(f, (2,), (0.3,), 1.0, box, density=32, h_samples=8)
    single = modulus_mean(
        ModulusRequest(r=(2,), t=(0.3,), p=1.0, box=box, h_samples=8, density=32), f
    )
    assert total == pytest.approx(single, rel=1e-14)


# ---------------------------------------------------------------------------
# The batched step-sweep engine against the per-step loop it replaced


def _shrunk_box(box, r, h):
    """The box of points x with x and x + r h in ``box``, or None when it is
    empty, by scalar interval arithmetic one axis at a time."""
    lower, upper = [], []
    for a, b, ri, hi in zip(box.lower, box.upper, r, h):
        shift = ri * float(hi)
        lower.append(a + max(0.0, -shift))
        upper.append(b - max(0.0, shift))
        if not upper[-1] > lower[-1]:
            return None
    return Box(tuple(lower), tuple(upper))


def _grid_shape(r, h, box, density):
    """Shape of the midpoint grid of step h, or None when its domain is empty."""
    density = normalize_grid(density, box.dim)
    sub = _shrunk_box(box, r, h)
    if sub is None:
        return None
    ratio = sub.size / box.size
    return tuple(max(1, int(math.ceil(density[i] * ratio[i] - 1e-9))) for i in range(box.dim))


def _loop_field(f, r, h, box, density):
    """One difference field, one step at a time (the per-step definition)."""
    hv = np.asarray(h, float)
    shape = _grid_shape(r, hv, box, density)
    if shape is None:
        return None
    sub = _shrunk_box(box, r, hv)
    pts = grid_points(sub, shape)
    vals = np.zeros(shape)
    for combo in itertools.product(*(range(ri + 1) for ri in r)):
        w = 1.0
        for ri, j in zip(r, combo):
            w *= ((-1.0) ** (ri - j)) * math.comb(ri, j)
        vals = vals + w * np.asarray(f(pts + np.asarray(combo) * hv), float)
    return GridFunction(sub, vals)


def _loop_sup(f, r, t, box, density, m, ps):
    out = {p: 0.0 for p in ps}
    axes = []
    for ri, ti in zip(r, t):
        nodes = np.linspace(-ti, ti, m) if ri else np.zeros(1)
        axes.append(nodes[nodes != 0.0] if ri else nodes)
    for combo in itertools.product(*axes):
        field = _loop_field(f, r, combo, box, density)
        if field is not None:
            for p in ps:
                out[p] = max(out[p], lp_quasinorm(field, p))
    return out


def _loop_mean(f, r, t, box, density, m, ps):
    active = [i for i, ri in enumerate(r) if ri > 0]
    nodes = [-t[i] + (np.arange(m) + 0.5) * (2.0 * t[i] / m) for i in active]
    h_weight = float(np.prod([2.0 * t[i] / m for i in active]))
    volume = float(np.prod([2.0 * t[i] for i in active]))
    acc = {p: 0.0 for p in ps}
    for combo in itertools.product(*nodes):
        h = np.zeros(len(r))
        h[active] = combo
        field = _loop_field(f, r, h, box, density)
        if field is not None:
            for p in ps:
                acc[p] += lp_quasinorm(field, p) ** p * h_weight
    return {p: (acc[p] / volume) ** (1.0 / p) for p in ps}


ENGINE_CASES = [
    # (corpus name, order with a zero on some axis or not, box, step bounds)
    ("sin_prod_1d", (2,), Box((0.2,), (1.7,)), (0.9,)),
    ("holder_half_1d", (1,), Box.unit(1), (1.0,)),  # steps up to the side
    ("trig_rand_2d_a", (1, 1), Box((0.0, 0.0), (1.0, 0.5)), (0.5, 0.25)),
    ("holder_half_2d", (2, 0), Box((0.0, 0.0), (1.0, 0.5)), (0.6, 0.3)),
    ("spline_prod_2d", (0, 3), Box.unit(2), (0.2, 0.4)),  # 3 * 0.4 > 1
    ("exp_sum_3d", (1, 0, 2), Box((0.0, -0.5, 0.0), (1.0, 0.0, 0.8)), (0.3, 0.2, 0.5)),
]


@pytest.mark.parametrize("name, r, box, t", ENGINE_CASES)
def test_engine_matches_per_step_loop(name, r, box, t):
    f = get_function(name)
    ps = [0.5, 1.0, 2.0, math.inf]
    for m, density in ((5, 7), (4, (9, 6, 5)[: box.dim])):
        sup = sup_modulus_sweep(f, r, t, box, density=density, h_samples=m, p_values=ps)
        want = _loop_sup(f, r, t, box, density, m, ps)
        mean = mean_modulus_sweep(f, r, t, box, density=density, h_samples=m, p_values=ps[:3])
        want_mean = _loop_mean(f, r, t, box, density, m, ps[:3])
        for p in ps:
            assert want[p] > 0.0
            assert sup[p] == pytest.approx(want[p], rel=1e-12, abs=0.0)
        for p in ps[:3]:
            assert mean[p] == pytest.approx(want_mean[p], rel=1e-12, abs=0.0)


def test_engine_field_matches_per_step_loop_including_empty():
    f = get_function("exp_sum_2d")
    box = Box((0.0, 0.0), (1.0, 0.5))
    for h in ((0.3, -0.1), (-0.45, 0.2), (0.0, 0.26), (1.2, 0.1)):
        got = difference_field(f, (1, 2), h, box, (11, 7))
        want = _loop_field(f, (1, 2), h, box, (11, 7))
        if want is None:
            assert got is None
            continue
        assert got.box == want.box
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)


def test_sweep_of_only_empty_steps_is_zero():
    f = get_function("exp_sum_1d")
    out = sup_modulus_sweep(
        f, (2,), (0.9,), Box.unit(1), density=8, h_samples=2, p_values=[1.0, math.inf]
    )
    assert out == {1.0: 0.0, math.inf: 0.0}


def test_linspace_nesting_premise():
    # the coarse sup is read off the refined sweep on this identity
    for m in range(2, 41):
        for t in (1.0, 0.5, 0.3, 0.125, 1.0 / 3.0):
            assert np.array_equal(np.linspace(-t, t, m), np.linspace(-t, t, 2 * m - 1)[::2])


def test_nested_coarse_sup_equals_a_separate_coarse_sweep():
    ps = [0.5, 1.0, 2.0, math.inf]
    box = Box((0.0, 0.0), (1.0, 0.5))
    for name, r in (("trig_rand_2d_b", (1, 1)), ("holder_half_2d", (2, 0)), ("cubic_2d", (1, 2))):
        f = get_function(name)
        for m in (2, 4, 5, 9):
            fine, coarse = sup_modulus_sweep(
                f, r, (0.5, 0.25), box, density=9, h_samples=2 * m - 1, p_values=ps, nested=True
            )
            assert fine == sup_modulus_sweep(
                f, r, (0.5, 0.25), box, density=9, h_samples=2 * m - 1, p_values=ps
            )
            assert coarse == sup_modulus_sweep(
                f, r, (0.5, 0.25), box, density=9, h_samples=m, p_values=ps
            )
    fine, coarse = total_sup_terms(
        f, (1, 1), (0.5, 0.25), box, density=9, h_samples=9, p_values=ps, nested=True
    )
    assert coarse == total_sup_terms(f, (1, 1), (0.5, 0.25), box, density=9, h_samples=5, p_values=ps)
    with pytest.raises(ValueError):
        sup_modulus_sweep(f, (1, 1), (0.5, 0.25), box, density=9, h_samples=4, p_values=ps, nested=True)


@pytest.mark.parametrize("r", [(1, 1), (2, 2), (1, 2)])
@pytest.mark.parametrize(
    "box",
    [Box.unit(2), Box((0.0, 0.0), (1.0, 0.5)), Box((0.0, 0.0), (0.3, 1.0))],
    ids=["unit", "half", "0.3x1"],
)
@pytest.mark.parametrize("m", [3, 5, 9])
def test_coarse_grid_empty_is_no_live_step_in_any_subset_sweep(r, box, m):
    # Whitney's coarse sweeps, t the box size; (2, 2), unit, 5 is the
    # unresolved case of verify --grid 12 --hsamples 5
    t = tuple(box.size)
    bounds = _bits(box.lower + box.upper)
    live = 0
    for e in nonempty_axis_subsets(2):
        order = restrict_order(r, e)
        steps, _ = differences._node_steps(False, order, _bits(t), m)
        live += differences._plan(order, steps.shape, steps.tobytes(), bounds, (12, 12)).live.size
    assert differences._coarse_grid_empty(r, t, box, m) == (live == 0)


@pytest.mark.parametrize("r", [(1, 0), (0, 1), (2, 0)])
@pytest.mark.parametrize("m", [3, 5])
def test_coarse_grid_empty_reads_only_the_active_axes(r, m):
    # the constant lemma's one-axis sweeps: an inactive axis's step 0 samples nothing
    box = Box.unit(2)
    t = tuple(box.size)
    steps, _ = differences._node_steps(False, r, _bits(t), m)
    bounds = _bits(box.lower + box.upper)
    live = differences._plan(r, steps.shape, steps.tobytes(), bounds, (8, 8)).live.size
    assert differences._coarse_grid_empty(r, t, box, m) == (live == 0)


def test_f_calls_per_sweep_at_most_the_chunks(monkeypatch):
    entry = get_function("exp_sum_2d")
    calls = []

    def counted(X):
        calls.append((X.shape, [X[..., i].flags.c_contiguous for i in range(X.shape[-1])]))
        return entry(X)

    box = Box.unit(2)
    t = (0.5, 0.5)
    cap = differences._CHUNK_POINTS
    for r, density, m in (((1, 1), 16, 17), ((2, 0), 16, 9), ((2, 2), 64, 17)):
        stencil = (r[0] + 1) * (r[1] + 1)
        n_steps = (m - 1) ** sum(1 for v in r if v)  # odd m: the zero step is dropped
        for sweep, nodes in ((sup_modulus_sweep, _sup_nodes), (mean_modulus_sweep, _mean_nodes)):
            calls.clear()
            got_norms = sweep(counted, r, t, box, density=density, h_samples=m, p_values=[1.0])
            got = [math.prod(shape[:-1]) for shape, _ in calls]
            grids = [_grid_shape(r, h, box, density) for h in itertools.product(*nodes(r, t, m))]
            cloud = stencil * sum(math.prod(g) for g in grids if g is not None)
            # every sup step here is a whole number of cells, so its cloud is
            # on the grid; the (2, 0) cloud fits one call and stays a cloud
            if sweep is sup_modulus_sweep and cloud > cap:
                # the grid's points, once, in one call on contiguous planes
                assert [shape for shape, _ in calls] == [(density**2, 2)]
                assert all(all(planes) for _, planes in calls)
                with monkeypatch.context() as mp:
                    mp.setattr(differences, "_fields", _oracle_fields)
                    want = sweep(entry, r, t, box, density=density, h_samples=m, p_values=[1.0])
                assert got_norms == want
                continue
            # same work: the f calls of the cloud packing rule, point for
            # point, and every live step's grid once per stencil offset
            sizes = sorted(math.prod(g) for g in grids if g is not None)
            assert got == [k * n for k, n in _cloud_calls(sizes, stencil, cap)]
            assert sum(got) == cloud
            # no call exceeds the cap, except one holding a single larger field
            assert max(got) <= max(cap, density**2)
            if stencil * density**2 <= cap:
                # every step fits a chunk; greedy packing puts more than the
                # cap into any two neighbouring chunks
                assert len(got) <= 2 * math.ceil(sum(got) / cap) + 1
                assert len(got) < n_steps / 4
            else:
                assert len(got) < n_steps * stencil / 2


def _recording(f, calls):
    def recorded(X):
        calls.append(X.shape)
        return f(X)

    return recorded


# (corpus name, order, box, step bound, step samples, density): sup sweeps
# whose clouds are larger than one call of f but do not read the grid
REFUSALS = [
    # one ulp off the grid on axis 0; with t = (0.5, 0.5) it reads the grid
    ("exp_sum_2d", (1, 1), Box.unit(2), (np.nextafter(0.5, 1.0), 0.5), 17, 16),
    # midpoints 0.2 + (k + 0.5) * 1.5/1024 are not dyadic, so shifting them
    # rounds; on Box((0.0,), (1.5,)) the same sweep reads the grid
    ("exp_sum_1d", (2,), Box((0.2,), (1.7,)), (0.375,), 9, 1024),
    # every step is a whole number of cells, but 64^3 grid points are more
    # than the 8 * 8 * 8^3 cloud points
    ("exp_sum_3d", (1, 1, 1), Box.unit(3), (0.875, 0.875, 0.875), 3, 64),
]


@pytest.mark.parametrize("name, r, box, t, m, density", REFUSALS)
def test_sweeps_off_the_grid_or_smaller_than_it_keep_the_cloud(name, r, box, t, m, density):
    f = get_function(name)
    steps = _step_product(_sup_nodes(r, t, m))
    got = []
    chunks = list(differences._fields(_recording(f, got), r, steps, box, density))
    oracle = list(_oracle_fields(f, r, steps, box, density))
    # the calls of the cloud packing rule, (offsets, points, d) each
    sizes = [n for c in oracle for n in np.diff(c.bounds).tolist()]
    stencil = len(differences._stencil(r))
    want = _cloud_calls(sizes, stencil, differences._CHUNK_POINTS)
    assert got == [(k, n, box.dim) for k, n in want]
    assert sum(math.prod(shape[:-1]) for shape in got) > differences._CHUNK_POINTS
    assert _per_step(chunks) == _per_step(oracle)


def test_the_refused_sweeps_twins_read_the_grid():
    f = get_function("exp_sum_2d")
    steps = _step_product(_sup_nodes((1, 1), (0.5, 0.5), 17))
    calls = []
    chunks = list(differences._fields(_recording(f, calls), (1, 1), steps, Box.unit(2), 16))
    assert calls == [(256, 2)]
    assert _per_step(chunks) == _per_step(_oracle_fields(f, (1, 1), steps, Box.unit(2), 16))
    f = get_function("exp_sum_1d")
    steps = _step_product(_sup_nodes((2,), (0.375,), 9))
    calls.clear()
    chunks = list(differences._fields(_recording(f, calls), (2,), steps, Box((0.0,), (1.5,)), 1024))
    assert calls == [(1024, 1)]
    assert _per_step(chunks) == _per_step(_oracle_fields(f, (2,), steps, Box((0.0,), (1.5,)), 1024))


# ---------------------------------------------------------------------------
# The broadcast cloud builder against the per-point builder it replaced


def _oracle_fields(f, r, steps, box, density):
    """The per-point chunk builder the broadcast one replaced, verbatim:
    every point's grid index comes from divmod on its row-major index."""
    dim = box.dim
    steps = np.asarray(steps, float)
    if len(r) != dim or steps.ndim != 2 or steps.shape[1] != dim:
        raise ValueError("order and steps must match the box dimension")
    density = np.asarray(normalize_grid(density, dim))
    stencil = differences._stencil(r)
    offsets = np.array([o for _, o in stencil], float).reshape(len(stencil), dim)
    shift = np.asarray(r) * steps
    lo = np.asarray(box.lower) + np.maximum(0.0, -shift)
    hi = np.asarray(box.upper) - np.maximum(0.0, shift)
    live = np.flatnonzero(np.all(hi > lo, axis=1))
    lo, hi, steps = lo[live], hi[live], steps[live]
    size = hi - lo
    shape = np.maximum(1, np.ceil(density * (size / box.size) - 1e-9)).astype(np.int64)
    width = size / shape
    npts = np.prod(shape, axis=1)
    # equal-sized grids side by side form the oracle's own runs, which
    # _step_norms sums as matrix rows
    order = np.argsort(npts, kind="stable")
    starts, total = [], 0
    for k, n in enumerate((npts[order] * len(stencil)).tolist()):
        if total == 0 or total + n > differences._CHUNK_POINTS:
            starts.append(k)
            total = 0
        total += n
    starts.append(order.size)
    for a, b in zip(starts, starts[1:]):
        sel = order[a:b]
        counts = npts[sel]
        bounds = np.zeros(sel.size + 1, np.int64)
        np.cumsum(counts, out=bounds[1:])
        # per axis: each point's midpoint coordinate and its step's shift,
        # from its row-major index q within its own grid
        q = np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts)
        coords, shifts = [None] * dim, [None] * dim
        for i in reversed(range(dim)):
            q, k = np.divmod(q, np.repeat(shape[sel, i], counts))
            coords[i] = np.repeat(lo[sel, i], counts) + (k + 0.5) * np.repeat(
                width[sel, i], counts
            )
            shifts[i] = np.repeat(steps[sel, i], counts)
        values = np.zeros(bounds[-1])
        # a step whose cloud alone exceeds the cap takes a few offsets per call
        per_call = max(1, differences._CHUNK_POINTS // bounds[-1])
        for j in range(0, len(stencil), per_call):
            cloud = np.empty((len(stencil[j : j + per_call]), bounds[-1], dim))
            for i in range(dim):
                axis = cloud[..., i]
                np.multiply(offsets[j : j + per_call, i, None], shifts[i], out=axis)
                axis += coords[i]
            evals = np.asarray(f(cloud), float)
            if evals.shape != cloud.shape[:-1]:
                raise ValueError(
                    f"function returned shape {evals.shape}, expected {cloud.shape[:-1]}"
                )
            for (w, _), column in zip(stencil[j : j + per_call], evals):
                values = values + w * column
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must all be finite")
        # the runs of equal-size steps: (u, v, start, stop), u to v - 1
        # owning values[start:stop]
        edges = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), sel.size]
        yield differences._Chunk(
            steps=live[sel],
            values=values,
            bounds=bounds,
            runs=tuple((u, v, int(bounds[u]), int(bounds[v])) for u, v in zip(edges, edges[1:])),
            lo=lo[sel],
            hi=hi[sel],
            shape=shape[sel],
            cell_volume=np.prod(width[sel], axis=1),
        )


def _per_step(chunks):
    """Each live step's field, shape, box and cell volume, as bytes, once
    the chunk's runs are checked to cover it with equal-size grids."""
    out = {}
    for ch in chunks:
        sizes, at = np.diff(ch.bounds), 0
        for u, v, start, stop in ch.runs:
            assert at == u < v and (start, stop) == (ch.bounds[u], ch.bounds[v])
            assert np.all(sizes[u:v] == sizes[u])
            at = v
        assert at == ch.steps.size
        for k, step in enumerate(ch.steps.tolist()):
            out[step] = (
                ch.values[ch.bounds[k] : ch.bounds[k + 1]].tobytes(),
                ch.shape[k].tobytes(),
                ch.lo[k].tobytes(),
                ch.hi[k].tobytes(),
                ch.cell_volume[k : k + 1].tobytes(),
            )
    return out


def _packed(sizes, room):
    """Totals of a greedy packing: a chunk takes the next sizes while
    they fit ``room``, and at least one."""
    out = []
    for n in sizes:
        if out and out[-1] + n <= room:
            out[-1] += n
        else:
            out.append(n)
    return out


def _cloud_room(stencil, cap):
    """Field points a chunk of the cloud path takes, at most: four caps of
    cloud points, and at most one cap of field points."""
    return min(cap, 4 * cap // stencil)


def _cloud_calls(sizes, stencil, cap):
    """``(offsets, points)`` of each call of f on the cloud path: the grid
    sizes, in grid order, packed greedily into chunks of ``_cloud_room``,
    and each chunk's offsets, in order, taken as many per call as fit the
    cap, and at least one."""
    out = []
    for n in _packed(sizes, _cloud_room(stencil, cap)):
        per_call = max(1, cap // n)
        out += [(min(per_call, stencil - j), n) for j in range(0, stencil, per_call)]
    return out


def _sup_nodes(r, t, m):
    """Per-axis step nodes of a sup sweep with m samples."""
    return [differences._sup_axis_nodes(ri, ti, m)[0] for ri, ti in zip(r, t)]


def _mean_nodes(r, t, m):
    """Per-axis step nodes of a mean sweep with m cells."""
    return [
        -ti + (np.arange(m) + 0.5) * (2.0 * ti / m) if ri else np.zeros(1) for ri, ti in zip(r, t)
    ]


def _random_steps(rng, r, t, n, values=None):
    """n steps with |h_i| <= t_i (0 where r_i = 0), drawn from ``values``
    times t_i when given, so that equal-size grids of different shapes
    interleave in step order."""
    cols = []
    for ri, ti in zip(r, t):
        if not ri:
            cols.append(np.zeros(n))
        elif values is None:
            cols.append(rng.uniform(-ti, ti, n))
        else:
            cols.append(rng.choice(values, n) * ti)
    return np.stack(cols, axis=1)


# (corpus name, order, box, step bound, density): d = 1, 2 and 3, zero
# orders, anisotropic boxes, and bounds that empty some domains; the
# dyadic bounds make the sup nodes and quarter steps whole numbers of
# cells, whose fields are read off the grid
ORACLE_CASES = [
    ("sin_prod_1d", (2,), Box((0.2,), (1.7,)), (0.9,), 7),
    ("exp_sum_1d", (0,), Box.unit(1), (0.5,), 33),
    ("trig_rand_2d_a", (1, 1), Box.unit(2), (1.0, 1.0), 16),
    ("trig_rand_2d_b", (1, 1), Box((0.0, 0.0), (1.0, 0.5)), (0.5, 0.25), (16, 8)),
    ("holder_half_2d", (2, 0), Box((0.0, 0.0), (1.0, 0.5)), (0.6, 0.3), 9),
    ("spline_prod_2d", (0, 3), Box.unit(2), (0.2, 0.4), 12),
    ("cubic_2d", (2, 2), Box.unit(2), (0.3, 0.3), 64),  # clouds beyond the cap
    ("exp_sum_3d", (1, 0, 2), Box((0.0, -0.5, 0.0), (1.0, 0.0, 0.8)), (0.3, 0.2, 0.5), (9, 6, 5)),
    ("exp_sum_3d", (1, 1, 1), Box.unit(3), (0.6, 0.6, 0.6), 8),
    ("abs_kink_1d", (2,), Box.unit(1), (0.5,), 2048),
    ("holder_one_2d", (2, 2), Box.unit(2), (0.5, 0.5), 64),
    ("exp_sum_3d", (1, 1, 1), Box.unit(3), (0.5, 0.5, 0.5), 8),
]


@pytest.mark.parametrize("name, r, box, t, density", ORACLE_CASES)
def test_fields_bit_identical_to_per_point_oracle(name, r, box, t, density):
    f = get_function(name)
    rng = np.random.default_rng(len(name) + sum(r))
    # quarter steps make equal-size grids of different shapes, such as
    # (8, 16) and (16, 8) at density 16, interleave in step order
    quarters = np.array([-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
    step_lists = [
        _random_steps(rng, r, t, 40),
        _random_steps(rng, r, t, 60, quarters),
        _step_product(_sup_nodes(r, t, 9)),
        _step_product(_mean_nodes(r, t, 4)),
    ]
    stencil = len(differences._stencil(r))
    cap = differences._CHUNK_POINTS
    largest = 0
    for steps in step_lists:
        calls = []
        chunks = list(differences._fields(_recording(f, calls), r, steps, box, density))
        oracle = list(_oracle_fields(f, r, steps, box, density))
        assert _per_step(chunks) == _per_step(oracle)
        # the oracle's grid sizes in the oracle's order, packed greedily:
        # when f was called on the grid only, field points up to the cap,
        # else by the cloud packing rule; the oracle packs cloud points up
        # to the cap
        sizes = [n for c in oracle for n in np.diff(c.bounds).tolist()]
        if calls and len(calls[0]) == 2:
            assert [c.bounds[-1] for c in chunks] == _packed(sizes, cap)
        else:
            assert [c.bounds[-1] for c in chunks] == _packed(sizes, _cloud_room(stencil, cap))
            assert [c.bounds[-1] for c in oracle] == _packed(sizes, cap // stencil)
        largest = max([largest, *(int(c.bounds[-1]) * stencil for c in oracle)])
    # a step whose cloud exceeds the cap is covered wherever the full grid does
    full = math.prod(normalize_grid(density, box.dim)) * stencil
    assert (largest > differences._CHUNK_POINTS) == (full > differences._CHUNK_POINTS)


@pytest.mark.parametrize("name, r, box, t, density", ORACLE_CASES)
def test_sweeps_equal_the_per_point_oracle(monkeypatch, name, r, box, t, density):
    f = get_function(name)
    ps = [0.5, 1.0, 2.0, math.inf]
    kw = dict(density=density, h_samples=5, p_values=ps)

    def sweeps():
        return (
            sup_modulus_sweep(f, r, t, box, nested=True, **kw),
            mean_modulus_sweep(f, r, t, box, **{**kw, "p_values": ps[:3]}),
        )

    got = sweeps()
    monkeypatch.setattr(differences, "_fields", _oracle_fields)
    assert got == sweeps()


def test_interleaved_equal_size_shapes_share_a_chunk():
    # (8, 16) and (16, 8) grids alternate in step order; the engine still
    # packs them, by size, into the oracle's chunks
    box = Box.unit(2)
    steps = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.01], [0.01, 0.5]] * 3)
    f = get_function("cubic_2d")
    got = list(differences._fields(f, (1, 1), steps, box, 16))
    want = list(_oracle_fields(f, (1, 1), steps, box, 16))
    assert [c.bounds.tolist() for c in got] == [c.bounds.tolist() for c in want]
    assert _per_step(got) == _per_step(want)
    assert {tuple(s) for c in got for s in c.shape.tolist()} == {(8, 16), (16, 8)}


# (corpus name, order, box, step bound, density): d = 1, 2 and 3, and
# cubic_2d's clouds beyond the cap, which take a few offsets per call;
# none reads the grid (trig_rand_2d_b's steps are whole cells, but its
# cloud fits one call)
LAYOUT_CASES = [
    ("sin_prod_1d", (2,), Box((0.2,), (1.7,)), (0.9,), 33),
    ("trig_rand_2d_b", (1, 1), Box((0.0, 0.0), (1.0, 0.5)), (0.5, 0.25), (16, 8)),
    ("cubic_2d", (2, 2), Box.unit(2), (0.3, 0.3), 64),
    ("exp_sum_3d", (1, 0, 2), Box((0.0, -0.5, 0.0), (1.0, 0.0, 0.8)), (0.3, 0.2, 0.5), (9, 6, 5)),
]


@pytest.mark.parametrize("name, r, box, t, density", LAYOUT_CASES)
def test_f_gets_contiguous_coordinate_planes(name, r, box, t, density):
    entry = get_function(name)
    stencil = len(differences._stencil(r))
    calls = []

    def recording(X):
        calls.append((X.shape, [X[..., i].flags.c_contiguous for i in range(X.shape[-1])]))
        return entry(X)

    steps = _step_product(_sup_nodes(r, t, 5))
    offsets_per_call = set()
    for chunk in differences._fields(recording, r, steps, box, density):
        # the calls of one chunk: (offsets, points, d), every offset once
        assert all(shape[1:] == (chunk.bounds[-1], box.dim) for shape, _ in calls)
        assert sum(shape[0] for shape, _ in calls) == stencil
        assert all(all(planes) for _, planes in calls)
        offsets_per_call.update(shape[0] for shape, _ in calls)
        calls.clear()
    if math.prod(normalize_grid(density, box.dim)) * stencil > differences._CHUNK_POINTS:
        assert any(1 < k < stencil for k in offsets_per_call)


# (corpus name, order, box, step bound, density): sup sweeps with 5
# samples whose steps are whole numbers of cells and whose clouds take
# more than one call: d = 1, 2 and 3, and grids of one call and of two
# (128^2 points)
GRID_LAYOUT_CASES = [
    ("exp_sum_1d", (2,), Box.unit(1), (0.5,), 4096),
    ("trig_rand_2d_b", (1, 1), Box((0.0, 0.0), (1.0, 0.5)), (0.5, 0.25), (64, 32)),
    ("exp_sum_2d", (1, 0), Box.unit(2), (0.5, 0.5), 128),
    ("exp_sum_3d", (1, 1, 1), Box.unit(3), (0.5, 0.5, 0.5), 8),
]


@pytest.mark.parametrize("name, r, box, t, density", GRID_LAYOUT_CASES)
def test_f_gets_the_grid_on_contiguous_coordinate_planes(name, r, box, t, density):
    f = get_function(name)
    cap = differences._CHUNK_POINTS
    calls = []

    def recording(X):
        calls.append((X.shape, [X[..., i].flags.c_contiguous for i in range(X.shape[-1])]))
        return f(X)

    steps = _step_product(_sup_nodes(r, t, 5))
    chunks = differences._fields(recording, r, steps, box, density)
    first = next(chunks)
    # the grid's points, once, before the first chunk, in calls of at most
    # the cap, each (points, d) with contiguous coordinate planes
    grid = math.prod(normalize_grid(density, box.dim))
    assert [shape for shape, _ in calls] == [
        (min(cap, grid - j), box.dim) for j in range(0, grid, cap)
    ]
    assert all(all(planes) for _, planes in calls)
    calls.clear()
    rest = list(chunks)
    assert calls == []
    assert _per_step([first, *rest]) == _per_step(_oracle_fields(f, r, steps, box, density))


# ---------------------------------------------------------------------------
# The chunk cap, the memory of a sweep and non-finite values


def _reads_grid(f, r, steps, box, density):
    """Whether ``_fields`` calls f on the box's grid (the lattice path)
    rather than on the steps' clouds."""
    calls = []
    list(differences._fields(_recording(f, calls), r, steps, box, density))
    return len(calls[0]) == 2


# (corpus name, order, box, step bound, density, sup samples, mean
# samples): d = 1, 2 and 3; at the default cap the sup sweep reads the
# grid and the mean sweep keeps the cloud
PACKING_CASES = [
    ("exp_sum_1d", (2,), Box.unit(1), (0.5,), 4096, 5, 5),
    ("exp_sum_2d", (1, 1), Box.unit(2), (0.5, 0.5), 16, 17, 5),
    ("exp_sum_3d", (1, 1, 1), Box.unit(3), (0.5, 0.5, 0.5), 8, 5, 5),
]


@pytest.mark.parametrize("name, r, box, t, density, m_sup, m_mean", PACKING_CASES)
def test_the_chunk_cap_changes_no_bit(monkeypatch, name, r, box, t, density, m_sup, m_mean):
    f = get_function(name)
    ps = [0.5, 1.0, 2.0, math.inf]
    step_lists = [_step_product(_sup_nodes(r, t, m_sup)), _step_product(_mean_nodes(r, t, m_mean))]
    assert [_reads_grid(f, r, s, box, density) for s in step_lists] == [True, False]

    def run():
        # the plan memo's keys leave the cap out
        differences._plan.cache_clear()
        fields = [_per_step(differences._fields(f, r, s, box, density)) for s in step_lists]
        kw = dict(density=density, p_values=ps)
        norms = (
            sup_modulus_sweep(f, r, t, box, h_samples=m_sup, nested=True, **kw),
            mean_modulus_sweep(f, r, t, box, h_samples=m_mean, **kw),
        )
        return fields, norms

    want = run()
    try:
        for cap in (1 << 6, 1 << 13, 1 << 16):
            monkeypatch.setattr(differences, "_CHUNK_POINTS", cap)
            monkeypatch.setattr(domain, "_CHUNK_POINTS", cap)
            assert run() == want
    finally:
        differences._plan.cache_clear()


@pytest.mark.parametrize("r", [(4, 4, 4), (2, 2, 2)])
@pytest.mark.parametrize("sweep", [sup_modulus_sweep, mean_modulus_sweep])
def test_cloud_sweeps_run_in_small_memory_whatever_the_stencil(r, sweep):
    # steps of 0.05 and 0.1 are not whole cells of the 32^3 grid, so the
    # sweeps keep the cloud; fields of 20^3 to 29^3 points, 125 or 27
    # stencil offsets each
    calls = []
    f = _recording(get_function("exp_sum_3d"), calls)
    differences._plan.cache_clear()
    tracemalloc.start()
    try:
        sweep(f, r, (0.1, 0.1, 0.1), Box.unit(3), density=32, h_samples=2, p_values=[1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(len(shape) == 3 for shape in calls)
    assert peak < 8e6


def _spoiled(value):
    """exp_sum_2d, but ``value`` wherever x_0 > 0.75, which every step's
    field reaches."""
    f = get_function("exp_sum_2d")
    return lambda X: np.where(X[..., 0] > 0.75, value, f(X))


class _SpoiledPolynomial:
    """A stand-in for a tensor polynomial of degrees (2, 2) that is not
    finite wherever x_0 > 0.75."""

    degrees = (2, 2)

    def __init__(self, value):
        self._f = _spoiled(value)

    def __call__(self, X):
        return self._f(X)


# (step bound, sup samples, mean samples, whether the sweeps read the grid)
# on exp_sum_2d at 16^2: every step is a whole number of cells, or none is
NON_FINITE_SWEEPS = [((0.5, 0.5), 17, 4, True), ((0.3, 0.3), 5, 4, False)]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("t, m_sup, m_mean, grid", NON_FINITE_SWEEPS)
def test_non_finite_values_of_f_are_rejected_by_every_sweep(bad, t, m_sup, m_mean, grid):
    r, box = (1, 1), Box.unit(2)
    for m, nodes in ((m_sup, _sup_nodes), (m_mean, _mean_nodes)):
        steps = _step_product(nodes(r, t, m))
        assert _reads_grid(get_function("exp_sum_2d"), r, steps, box, 16) == grid
    f = _spoiled(bad)
    sweeps = [
        lambda: sup_modulus_sweep(f, r, t, box, density=16, h_samples=m_sup, p_values=[1.0]),
        lambda: sup_modulus_sweep(f, r, t, box, density=16, h_samples=m_sup, p_values=[math.inf]),
        lambda: mean_modulus_sweep(f, r, t, box, density=16, h_samples=m_mean, p_values=[1.0]),
    ]
    for sweep in sweeps:
        # inf - inf is NaN, with a warning that is not the point here
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="^grid values must all be finite$"):
                sweep()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("h, grid", [((1 / 64, 1 / 64), True), ((0.01, 0.01), False)])
def test_non_finite_values_of_f_are_rejected_by_one_step_fields(bad, h, grid):
    box = Box.unit(2)
    steps = np.array([h])
    assert _reads_grid(get_function("exp_sum_2d"), (2, 2), steps, box, 64) == grid
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="^grid values must all be finite$"):
            difference_field(_spoiled(bad), (2, 2), h, box, 64)
        with pytest.raises(ValueError, match="^grid values must all be finite$"):
            annihilation_residual(_SpoiledPolynomial(bad), (0, 1), steps, box, 64)


@pytest.mark.parametrize("t, grid", [(0.5, True), (0.3, False)])
def test_fields_whose_sum_overflows_are_finite_and_raise_no_warning(t, grid):
    # differences up to 5e305: the sum of a chunk's values overflows, while
    # every value, every |D|^0.5 and every maximum is finite
    f = lambda X: 1e306 * X[..., 0]
    box = Box.unit(1)
    steps = _step_product(_sup_nodes((1,), (t,), 5))
    assert _reads_grid(f, (1,), steps, box, 4096) == grid
    kw = dict(density=4096, h_samples=5, p_values=[0.5, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [sweep(f, (1,), (t,), box, **kw) for sweep in (sup_modulus_sweep, mean_modulus_sweep)]
    assert all(0 < v < math.inf for out in got for v in out.values())


# ---------------------------------------------------------------------------
# Malformed sweep arguments are rejected, not swept


def _sweep_call(kind, r=(1, 1), t=(0.2, 0.2), h_samples=5, p_values=(1.0,)):
    f = get_function("exp_sum_2d")
    box = Box.unit(2)
    if kind == "sup":
        return sup_modulus_sweep(f, r, t, box, density=8, h_samples=h_samples, p_values=p_values)
    if kind == "mean":
        return mean_modulus_sweep(f, r, t, box, density=8, h_samples=h_samples, p_values=p_values)
    return [
        ModulusRequest(r=r, t=t, p=p, box=box, h_samples=h_samples, density=8) for p in p_values
    ]


MALFORMED = [
    dict(h_samples=0),
    dict(h_samples=-3),
    dict(h_samples=1),
    dict(p_values=(0.0,)),
    dict(p_values=(-1.0,)),
    dict(p_values=(math.nan,)),
    dict(p_values=(1.0, -2.0)),
    dict(r=(-1, 1)),
    dict(r=(1.5, 1)),
    dict(t=(-0.1, 0.2)),
    dict(t=(math.nan, 0.2)),
    dict(t=(math.inf, 0.2)),
    dict(t=(1e308, 0.2)),
    dict(t=(0.2,)),
]


@pytest.mark.parametrize("kind", ["sup", "mean", "request"])
@pytest.mark.parametrize("bad", MALFORMED, ids=lambda b: "-".join(f"{k}={v}" for k, v in b.items()))
def test_malformed_sweep_arguments_are_rejected(kind, bad):
    with pytest.raises(ValueError):
        _sweep_call(kind, **bad)


def test_negative_orders_are_rejected_by_every_difference():
    f = get_function("exp_sum_2d")
    with pytest.raises(ValueError):
        difference_field(f, (-1, 1), (0.1, 0.1), Box.unit(2), 8)
    with pytest.raises(ValueError):
        mixed_difference(f, (-1, 1), (0.1, 0.1), np.array([0.3, 0.3]))
    with pytest.raises(ValueError):
        list(differences._fields(f, (-1, 1), np.array([[0.1, 0.1]]), Box.unit(2), 8))


def test_integral_float_orders_sweep_as_ints():
    kw = dict(density=8, h_samples=5, p_values=[1.0, math.inf])
    f = get_function("exp_sum_2d")
    for sweep in (sup_modulus_sweep, mean_modulus_sweep):
        got = sweep(f, (2.0, 1.0), (0.2, 0.2), Box.unit(2), **kw)
        assert got == sweep(f, (2, 1), (0.2, 0.2), Box.unit(2), **kw)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_steps_are_rejected(bad):
    # an empty domain is None; a step that is not a number is an error
    f = get_function("exp_sum_2d")
    with pytest.raises(ValueError):
        difference_field(f, (1, 1), (bad, 0.1), Box.unit(2), 8)
    with pytest.raises(ValueError):
        list(differences._fields(f, (1, 1), np.array([[0.1, 0.1], [0.1, bad]]), Box.unit(2), 8))
