import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mixsmooth import identities
from mixsmooth.corpus import get_function
from mixsmooth.differences import mixed_difference
from mixsmooth.domain import Box, grid_points, nonempty_axis_subsets, restrict_order
from mixsmooth.identities import (
    annihilation_residual,
    halving_identity,
    reproduction_identity_gap,
    reproduction_residual,
    unit_decomposition,
)
from mixsmooth.polyapprox import TensorPolynomial


def test_unit_decomposition_known_small_cases():
    d = unit_decomposition((1,))
    assert d.a == {(1,): Fraction(1)}
    assert d.b == {(0,): Fraction(-1)}

    d = unit_decomposition((2,))
    assert d.a == {(1,): Fraction(2), (2,): Fraction(-1)}
    assert d.b == {(0,): Fraction(1)}

    d = unit_decomposition((1, 1))
    assert d.a == {(1, 1): Fraction(1)}
    assert d.b == {(0,): Fraction(-1), (1,): Fraction(-1), (0, 1): Fraction(-1)}


def test_unit_decomposition_exact_for_all_small_orders():
    # Independent oracle: both sides have degree <= r_i on axis i, so
    # agreeing on a tensor grid of r_i + 1 distinct rationals per axis
    # proves the polynomial identity.
    for dim in (1, 2, 3):
        for r in itertools.product(range(1, 5), repeat=dim):
            decomp = unit_decomposition(r)
            assert all(all(1 <= v <= ri for v, ri in zip(k, r)) for k in decomp.a)
            nodes = [[Fraction(j, 2) - Fraction(1, 3) for j in range(ri + 1)] for ri in r]
            for x in itertools.product(*nodes):
                total = Fraction(0)
                for k, c in decomp.a.items():
                    total += c * math.prod(xi**ki for xi, ki in zip(x, k))
                for e, c in decomp.b.items():
                    total += c * math.prod((x[i] - 1) ** r[i] for i in e)
                assert total == 1, (r, x)


def _dump(coefficients):
    return [(key, str(value)) for key, value in coefficients.items()]


def test_unit_decomposition_is_its_closed_forms_as_fractions():
    # the closed forms in Fraction arithmetic, in the documented key orders
    for dim in (1, 2, 3):
        for r in itertools.product(range(1, 5), repeat=dim):
            decomp = unit_decomposition(r)
            values = [*decomp.a.values(), *decomp.b.values()]
            assert all(type(c) is Fraction for c in values), r
            a = {
                k: Fraction(-1) ** (dim + sum(k)) * math.prod(map(Fraction, map(math.comb, r, k)))
                for k in itertools.product(*(range(1, ri + 1) for ri in r))
            }
            b = {
                u: -(Fraction(-1) ** (len(u) + sum(r[i] for i in u)))
                for u in nonempty_axis_subsets(dim)
            }
            assert (_dump(decomp.a), _dump(decomp.b)) == (_dump(a), _dump(b)), r


def test_self_checks_raise_on_a_wrong_binomial_row(monkeypatch):
    # one coefficient off in every (x + c)^n row must fail each exact check
    row = identities._power_of_binomial
    wrong = lambda n, c: [v + (j == 0) for j, v in enumerate(row(n, c))]
    monkeypatch.setattr(identities, "_power_of_binomial", wrong)
    for r in ((1,), (4,), (2, 3), (1, 1, 1), (4, 4, 4)):
        with pytest.raises(RuntimeError, match="unit decomposition failed"):
            unit_decomposition(r)
    for k in (1, 2, 5, 10):
        with pytest.raises(RuntimeError, match="halving identity"):
            halving_identity(k)


def test_reproduction_residual_member_and_affine():
    rng = np.random.default_rng(1)
    box = Box.unit(1)
    phi = TensorPolynomial.random((2,), rng)
    scale = 1.0 + float(np.abs(phi.coeffs).max())
    res = reproduction_residual(phi, (2,), box, [(0.04,), (-0.06,)], 16)
    assert res <= 1e-9 * scale
    # affine: f(x) = 2 f(x+h) - f(x+2h) exactly
    f = lambda X: 3.0 * X[..., 0] - 0.7
    assert reproduction_residual(f, (2,), box, [(0.1,)], 16) <= 1e-12


def test_reproduction_residual_matches_difference_side_for_nonmember():
    # x^2 is not annihilated at order 1; the residual must equal the
    # difference-side sum pointwise, so the gap stays at rounding level
    f = lambda X: X[..., 0] ** 2
    box = Box.unit(1)
    gap = reproduction_identity_gap(f, (1,), box, [(0.07,), (0.11,)], 32)
    assert gap <= 1e-12
    h = 0.07
    res = reproduction_residual(f, (1,), box, [(h,)], 32)
    decomp = unit_decomposition((1,))
    # single subset: residual is |b| * |2xh + h^2| at the worst valid sample
    xs = (np.arange(32) + 0.5) / 32
    xs = xs[xs + h <= 1.0 + 1e-12]
    expected = abs(float(decomp.b[(0,)])) * np.abs(2 * xs * h + h * h).max()
    assert res == pytest.approx(expected, rel=1e-9)


def test_reproduction_identity_gap_two_dim():
    f = lambda X: np.exp(X[..., 0]) * np.cos(X[..., 1])
    gap = reproduction_identity_gap(f, (2, 2), Box.unit(2), [(0.05, 0.04)], 8)
    assert gap <= 1e-9


@pytest.mark.parametrize("check", [reproduction_residual, reproduction_identity_gap])
def test_identity_checks_reject_non_finite_residuals(check):
    # max(0.0, nan) is 0.0: a NaN strip must not read as an exact identity
    def f(X):
        strip = (X[..., 0] > 0.5) & (X[..., 1] < 0.2)
        return np.where(strip, np.nan, np.exp(X[..., 0] + X[..., 1]))

    with pytest.raises(ValueError, match="non-finite"):
        check(f, (1, 1), Box.unit(2), [(0.05, 0.05), (0.1, 0.1)], 8)


def test_reproduction_residual_on_a_dilated_box_is_the_unit_ones_scaled():
    # sqrt(a - x) on [0, a] is a^(1/2) sqrt(1 - x/a) on [0, 1], and a power
    # of two scales every grid point and step exactly.  With a = 2^-44 an
    # absolute membership slack of 1e-12 (about 17.6 a) would let stencils
    # reach x = 3a, where sqrt(a - x) is NaN; a slack in units of the side
    # does not
    a = 2.0**-44
    unit = reproduction_residual(
        lambda X: np.sqrt(1.0 - X[..., 0]), (2,), Box.unit(1), [(0.3,)], 8
    )
    dilated = reproduction_residual(
        lambda X: np.sqrt(a - X[..., 0]), (2,), Box((0.0,), (a,)), [(0.3 * a,)], 8
    )
    assert unit == 0.12002977305504237
    assert dilated == unit * 2.0**-22


def test_reproduction_all_points_skipped_raises():
    f = lambda X: X[..., 0]
    with pytest.raises(ValueError):
        reproduction_residual(f, (1,), Box.unit(1), [(5.0,)], 4)


def test_annihilation_examples_and_property():
    box = Box.unit(2)
    const = TensorPolynomial(np.array([[2.5]]))
    for e in nonempty_axis_subsets(2):
        assert annihilation_residual(const, e, (0.1, 0.1), box, 8) <= 1e-12
    # x*y as a member of the (2,2) space: order (2,0) annihilates it
    xy = TensorPolynomial(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert annihilation_residual(xy, (0,), (0.2, 0.1), box, 8) <= 1e-10

    rng = np.random.default_rng(77)
    for _ in range(50):
        phi = TensorPolynomial.random((3, 2), rng)
        scale = float(np.abs(phi(grid_points(box, 8))).max()) + 1.0
        for e in nonempty_axis_subsets(2):
            for h0 in (-0.15, 0.08, 0.2):
                resid = annihilation_residual(phi, e, (h0, h0 / 2), box, 8)
                assert resid <= 1e-9 * scale


def test_annihilation_all_steps_unsampled_raises():
    # shifting axis 0 by 2 * 0.9 leaves the unit box empty: nothing was
    # sampled, which is no evidence of a zero residual
    phi = TensorPolynomial.random((2, 2), np.random.default_rng(0))
    with pytest.raises(ValueError, match="every sample point violated"):
        annihilation_residual(phi, (0,), (0.9, 0.1), Box.unit(2), 8)
    with pytest.raises(ValueError, match="every sample point violated"):
        annihilation_residual(phi, (0, 1), [(0.9, 0.1), (0.1, -0.6)], Box.unit(2), 8)
    # one step that samples is enough
    assert annihilation_residual(phi, (0,), [(0.9, 0.1), (0.2, 0.1)], Box.unit(2), 8) <= 1e-9


@pytest.mark.parametrize("axis", [0.7, 1.5, -1, 2, 5])
def test_annihilation_residual_rejects_axes_phi_does_not_have(axis):
    # axis 5 used to zero every order, and the "residual" was max|phi|
    phi = TensorPolynomial.random((2, 3), np.random.default_rng(3))
    with pytest.raises(ValueError, match=rf"axis .*{axis!r}"):
        annihilation_residual(phi, (axis,), (0.1, 0.1), Box.unit(2), 8)
    with pytest.raises(ValueError, match="nonempty"):
        annihilation_residual(phi, (), (0.1, 0.1), Box.unit(2), 8)


class _CountingPoly:
    """A tensor polynomial that counts its calls."""

    def __init__(self, phi):
        self.phi, self.degrees, self.calls = phi, phi.degrees, 0

    def __call__(self, x):
        self.calls += 1
        return self.phi(x)


@pytest.mark.parametrize("dim", [2, 3])
def test_annihilation_residual_of_a_step_stack_is_the_max_over_steps(dim):
    rng = np.random.default_rng(11)
    box = Box.unit(dim)
    steps = [(h0,) * dim for h0 in (-0.2, -0.1, 0.1, 0.2)]
    for _ in range(5):
        phi = TensorPolynomial.random((2, 3, 2)[:dim], rng)
        for e in nonempty_axis_subsets(dim):
            each, stack = _CountingPoly(phi), _CountingPoly(phi)
            want = max(annihilation_residual(each, e, h, box, 8) for h in steps)
            assert annihilation_residual(stack, e, steps, box, 8) == want
            if dim == 2:
                assert stack.calls < each.calls


def _oracle_valid_sample_mask(x, h, r, box):
    """Every stencil offset of every point, each checked against the box."""
    mask = np.ones(x.shape[0], dtype=bool)
    for offset in itertools.product(*(range(ri + 1) for ri in r)):
        mask &= box.contains(x + np.asarray(offset) * h)
    return mask


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_valid_sample_mask_checks_only_the_end_offsets(dim):
    rng = np.random.default_rng(dim)
    box = Box(tuple(rng.uniform(-1.0, 0.0, dim)), tuple(rng.uniform(0.5, 2.0, dim)))
    lo, hi = np.asarray(box.lower), np.asarray(box.upper)
    for r in itertools.product(range(4), repeat=dim):
        for _ in range(5):
            h = rng.uniform(-0.4, 0.4, dim)
            x = rng.uniform(lo - 0.2, hi + 0.2, (40, dim))
            # on and just around the upper slack, for x and for x + r h
            edge = hi + rng.choice([0.5e-12, 1e-12, 1.5e-12], (40, dim))
            end = edge - np.asarray(r) * h
            pts = np.concatenate([x, edge, end, np.where(rng.random((40, dim)) < 0.5, edge, x)])
            got = identities._valid_sample_mask(pts, h, r, box)
            assert np.array_equal(got, _oracle_valid_sample_mask(pts, h, r, box))


def test_decomposition_operator_identity_consistency():
    # f(x) - sum a_k f(x+kh) equals sum b_e Delta^{r(e)} f(x) at every sample
    rng = np.random.default_rng(5)
    box = Box.unit(2)
    r = (2, 3)
    decomp = unit_decomposition(r)
    f = lambda X: np.sin(X[..., 0] * 2.0) * np.exp(0.5 * X[..., 1])
    pts = grid_points(box, 5).reshape(-1, 2)
    pts = pts[box.contains(pts + np.array(r) * np.array([0.05, 0.03]))]
    h = np.array([0.05, 0.03])
    lhs = f(pts).copy()
    for k, c in decomp.a.items():
        lhs -= float(c) * f(pts + np.array(k) * h)
    rhs = np.zeros(pts.shape[0])
    for e, c in decomp.b.items():
        rhs += float(c) * mixed_difference(f, restrict_order(r, e), h, pts)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(f(pts)).max())


def test_halving_identity_small_orders():
    assert halving_identity(1) == {(0,): Fraction(-1, 2)}
    assert halving_identity(2) == {(0,): Fraction(-3, 4), (1,): Fraction(-1, 4)}
    for k in range(1, 7):
        assert list(halving_identity(k)) == [(j,) for j in range(k)]


def test_halving_identity_exact_through_ten():
    # Independent oracle: both sides have degree <= 2k, so agreeing at
    # 2k + 1 distinct rationals proves the identity.
    for k in range(1, 11):
        witness = halving_identity(k)
        assert all(type(c) is Fraction and 2**k % c.denominator == 0 for c in witness.values())
        for n in range(2 * k + 1):
            x = Fraction(2 * n + 1, 7)
            p = sum(c * x**j for (j,), c in witness.items())
            assert (x - 1) ** k == Fraction(1, 2**k) * (x * x - 1) ** k + p * (x - 1) ** (k + 1)


def _parent_worst(f, r, b, box, h_list, n):
    """The reproduction residual as one call of f per term, with each
    difference from ``mixed_difference``: the oracle the stencil table of
    ``_worst_residual`` must match bit for bit."""
    decomp = unit_decomposition(r)
    x = grid_points(box, n).reshape(-1, len(r))
    worst = 0.0
    for h in h_list:
        hv = np.asarray(h, float)
        pts = x[box.contains(x) & box.contains(x + np.asarray(r) * hv)]
        fx = f(pts)
        recon = np.zeros_like(fx)
        for k, c in decomp.a.items():
            recon += float(c) * f(pts + np.asarray(k) * hv)
        diff_sum = np.zeros_like(fx)
        for e, c in b(decomp).items():
            diff_sum += float(c) * mixed_difference(f, restrict_order(r, e), hv, pts)
        worst = max(worst, float(np.abs(fx - recon - diff_sum).max()))
    return worst


@pytest.mark.parametrize("r", [(2,), (3,), (1, 1), (2, 2)])
def test_reproduction_checks_evaluate_each_stencil_offset_once_per_step(r):
    # the suite's reproduction block: its probe, steps and sample grid
    d = len(r)
    box = Box.unit(d)
    probe = get_function("exp_sum_1d" if d == 1 else "exp_sum_2d")
    h_list = [tuple(0.04 + 0.015 * j for _ in range(d)) for j in range(3)]
    x = grid_points(box, 8).reshape(-1, d)
    valid = [int(identities._valid_sample_mask(x, np.asarray(h), r, box).sum()) for h in h_list]
    sizes = []

    def f(X):
        sizes.append(X.shape[:-1])
        return probe(X)

    # the gap reads every offset 0 <= j <= r, the plain residual 0 and each k of a
    cases = [
        (reproduction_identity_gap, lambda dec: dec.b, math.prod(ri + 1 for ri in r)),
        (reproduction_residual, lambda dec: {}, 1 + math.prod(r)),
    ]
    for check, b, offsets in cases:
        sizes.clear()
        value = check(f, r, box, h_list, 8)
        assert sizes == [(offsets, n) for n in valid]
        assert value == _parent_worst(probe, r, b, box, h_list, 8)
