import importlib.util
import json
import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mixsmooth import differences, verifier
from mixsmooth.cli import main
from mixsmooth.corpus import corpus_entries, get_function
from mixsmooth.differences import total_mean_terms, total_sup_terms
from mixsmooth.domain import Box, _bits, nonempty_axis_subsets, restrict_order
from mixsmooth.polyapprox import TensorPolynomial
from mixsmooth.verifier import (
    VerifierSettings,
    _constant_bound,
    _equivalence_pairs,
    _marchaud,
    _report,
    _superadditivity,
    _whitney_pairs,
    constant_bound_report,
    equivalence_report,
    estimate_constants,
    marchaud_report,
    run_suite,
    suite_identities,
    superadditivity_report,
    taylor_report,
    whitney_report,
)

SMALL = VerifierSettings(grid=16, h_samples=7, seed=0)


def test_whitney_vacuous_on_space_member():
    fn = get_function("bilinear_2d")
    rep_a, rep_b = whitney_report(fn, (2, 2), 2.0, Box.unit(2), SMALL)
    assert rep_a.vacuous and rep_a.passed
    assert rep_b.vacuous and rep_b.passed is None
    assert rep_b.empirical_constant is None


def test_whitney_square_projection_oracle():
    fn = get_function("square_1d")
    settings = VerifierSettings(grid=256, h_samples=9)
    rep_a, rep_b = whitney_report(fn, (1,), 2.0, Box.unit(1), settings)
    # E_1(x^2) in L_2 is the residual against the constant 1/3
    assert rep_b.left == pytest.approx(2.0 / (3.0 * math.sqrt(5.0)), abs=1e-3)
    assert rep_a.passed
    assert rep_b.empirical_constant is not None and rep_b.empirical_constant > 0


def test_whitney_hard_check_holds_across_p():
    fn = get_function("holder_half_2d")
    for p in (0.5, 1.0, 2.0, math.inf):
        rep_a, _ = whitney_report(fn, (1, 1), p, Box.unit(2), SMALL)
        assert rep_a.passed, (p, rep_a.left, rep_a.right)
        # one coefficient at every p: the exact constant closes the bracket
        assert rep_a.details["solver"] == "exact-constant"
        assert rep_a.details["solver_lower_bound"] == rep_a.right
        assert rep_a.details["solver_gap"] == 0.0


def test_settings_reject_fewer_than_three_step_samples():
    # two samples (+-t) refine to three whose one new node, the zero step,
    # every sweep drops: the refinement gap would read 0 by construction
    for n in (1, 2):
        with pytest.raises(ValueError, match="h_samples"):
            VerifierSettings(h_samples=n)
    assert VerifierSettings(h_samples=3).h_samples == 3


@pytest.mark.parametrize(
    "num, den, floor, unsampled, expected",
    [
        (1.0, 2.0, 1e-9, False, (0.5, None)),  # den above the floor: the ratio
        (0.0, 2.0, 1e-9, False, (0.0, None)),
        (1.0, 1e-9, 1e-9, False, (None, False)),  # den at the floor, num above
        (1.0, 0.0, 1e-9, False, (None, False)),
        (1e-9, 1e-9, 1e-9, False, (None, None)),  # both at the floor: vacuous
        (0.0, 0.0, 1e-9, False, (None, None)),
        (1.0, 2.0, 1e-9, True, (None, None)),  # nothing sampled: unresolved
        (1.0, 0.0, 1e-9, True, (None, None)),
    ],
)
def test_ratio_rule(num, den, floor, unsampled, expected):
    # _ratio rules on sampled sides; _report alone marks a record unresolved
    rep = verifier._report("f", "c", {}, num, den, floor, {}, ratio=(num, den), unsampled=unsampled)
    assert (rep.empirical_constant, rep.passed) == expected
    assert rep.details.get("coarse_grid_empty", False) is unsampled
    if not unsampled:
        assert verifier._ratio(num, den, floor) == expected


@pytest.mark.parametrize(
    "value, expected",
    [
        (np.array([1.0, math.inf]), [1.0, "inf"]),  # strict JSON: infinities as text
        (np.int64(3), 3),
        (-math.inf, "-inf"),
    ],
    ids=["array-with-inf", "numpy-int", "minus-inf"],
)
def test_jsonable_writes_strict_json_values(value, expected):
    out = verifier._jsonable(value)
    assert out == expected
    assert type(out) is type(expected)


def test_whitney_ratio_stable_under_refinement():
    (out,) = estimate_constants(["sin_prod_2d"], (2, 2), [2.0], grids=[16, 32], seed=0)
    ratios = [lvl["ratios"]["sin_prod_2d"] for lvl in out["levels"]]
    assert all(np.isfinite(v) for v in ratios)
    assert out["deltas"][0]["per_function"]["sin_prod_2d"] <= 0.10


def test_estimate_constants_deterministic():
    names = ["exp_sum_2d", "holder_one_2d", "const_2d"]
    (a,) = estimate_constants(names, (1, 1), [0.5], grids=[12, 16], seed=7)
    (b,) = estimate_constants(names, (1, 1), [0.5], grids=[12, 16], seed=7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["levels"][0]["vacuous"] == ["const_2d"]
    assert a["levels"][-1]["max_ratio"] > 0


def _estimate_constants_per_p(names, r, p, grids, seed=0):
    """The single-exponent aggregation that the exponent list replaced,
    one ``whitney_report`` per (function, grid), kept as the oracle."""
    levels = []
    for grid in grids:
        level = {"grid": int(grid), "ratios": {}, "vacuous": []}
        s = VerifierSettings(grid=int(grid), seed=seed, refine_h=False)
        for name in sorted(names):
            fn = get_function(name)
            _, rep_b = whitney_report(fn, r, p, Box.unit(fn.dim), s)
            if rep_b.vacuous:
                level["vacuous"].append(name)
            elif rep_b.empirical_constant is not None:
                level["ratios"][name] = rep_b.empirical_constant
        level["max_ratio"] = max(level["ratios"].values(), default=0.0)
        levels.append(level)
    deltas = []
    for a, b in zip(levels, levels[1:]):
        common = sorted(set(a["ratios"]) & set(b["ratios"]))
        per_fn = {
            n: abs(b["ratios"][n] - a["ratios"][n]) / max(a["ratios"][n], 1e-300)
            for n in common
        }
        max_a, max_b = a["max_ratio"], b["max_ratio"]
        deltas.append(
            {
                "grids": [a["grid"], b["grid"]],
                "per_function": per_fn,
                "max_ratio_delta": abs(max_b - max_a) / max(max_a, 1e-300),
            }
        )
    return {
        "r": list(int(v) for v in r),
        "p": verifier._p_str(p),
        "seed": seed,
        "levels": levels,
        "deltas": deltas,
    }


@pytest.mark.parametrize("r", [(1, 1), (2, 2)])
def test_estimate_constants_equals_the_per_p_aggregation(r, monkeypatch):
    names = ["const_2d", "exp_sum_2d", "holder_half_2d"]
    ps, grids = (math.inf, 2.0, 1.0, 0.5), [12, 16]
    expected = [_estimate_constants_per_p(names, r, p, grids, seed=3) for p in ps]
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _whitney_pairs(*args)

    monkeypatch.setattr(verifier, "_whitney_pairs", counted)
    got = estimate_constants(names, r, ps, grids, seed=3)
    assert len(calls) == len(names) * len(grids)
    assert len(got) == len(ps)
    for want, have in zip(expected, got):
        assert json.dumps(have, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_equivalence_hard_direction_and_ratio():
    fn = get_function("spline_prod_2d")
    for p in (0.5, 1.0, 2.0, math.inf):
        hard, ratio = equivalence_report(fn, (1, 1), (0.5, 0.5), p, Box.unit(2), SMALL)
        assert hard.passed, (p, hard.left, hard.right)
        if p != math.inf:
            assert hard.left <= hard.right * (1 + 1e-3) + 1e-9
            assert ratio.empirical_constant >= 1.0 - 1e-3
        else:
            # mean delegates to sup at p = inf, so the sides coincide
            assert hard.left == pytest.approx(hard.right, rel=1e-12)


def test_equivalence_vacuous_for_member():
    fn = get_function("const_2d")
    hard, ratio = equivalence_report(fn, (1, 1), (0.5, 0.5), 1.0, Box.unit(2), SMALL)
    assert hard.vacuous and hard.passed
    assert ratio.vacuous


def test_superadditivity_brute_force_double_integral_d1():
    # independent Riemann evaluation of both sides of the per-term form
    f = get_function("linear_1d")
    t, p, m = 0.125, 1.0, 2

    def w_power(lo, hi, n_h=4096):
        # |Delta_h f| = |h| for f(x) = x, constant in x, so the inner
        # integral is |h|^p times the shrunken length (hi - lo - |h|)+
        acc = 0.0
        hw = 2 * t / n_h
        for j in range(n_h):
            h = -t + (j + 0.5) * hw
            length = max(0.0, (hi - lo) - abs(h))
            acc += abs(h) ** p * length * hw
        return acc / (2 * t)

    # verify the package values for parent and children against the sum
    reports = superadditivity_report(
        f, (1,), (t,), p, Box.unit(1), m, VerifierSettings(grid=256, h_samples=32)
    )
    term = reports[0]
    brute_parent = w_power(0.0, 1.0)
    brute_children = w_power(0.0, 0.5) + w_power(0.5, 1.0)
    assert term.right == pytest.approx(brute_parent, rel=1e-2)
    assert term.left == pytest.approx(brute_children, rel=1e-2)
    assert term.passed


def test_superadditivity_small_p_all_terms():
    fn = get_function("sin_prod_2d")
    reports = superadditivity_report(
        fn, (1, 1), (0.125, 0.125), 0.5, Box.unit(2), 2, SMALL
    )
    terms = [r for r in reports if r.check == "superadditivity-term"]
    assert len(terms) == 3
    assert all(r.passed for r in terms)
    total = [r for r in reports if r.check == "superadditivity-total"][0]
    assert total.empirical_constant is not None
    assert total.empirical_constant <= 1.0 + 1e-2


@pytest.mark.parametrize("name", ["exp_sum_2d", "spline_prod_2d"])
def test_superadditivity_gap_compares_moduli_with_a_floor_in_their_units(name):
    # the mixed term's mean modulus at r = (2, 2), p = 0.5 is about 1e-5:
    # above 1e-9 ||f||_p, below the p-th-power floor (1e-9)^0.5 that once
    # zeroed its refinement gap
    fn = get_function(name)
    t, settings = (0.125, 0.125), VerifierSettings(grid=16, h_samples=9)
    *_, mixed, _ = _superadditivity(fn, (2, 2), t, [0.5], Box.unit(2), 2, settings)[0]
    assert mixed.params["subset"] == [0, 1] and mixed.passed
    coarse, fine = (
        total_mean_terms(fn, (2, 2), t, Box.unit(2), density=16, h_samples=n, p_values=[0.5])
        [(0, 1)][0.5]
        for n in (9, 18)
    )
    assert 1e-9 < coarse < 1e-9**0.5
    assert mixed.details["h_gap"] == (fine - coarse) / coarse > 0.0


def test_superadditivity_rejects_inf_p():
    with pytest.raises(ValueError):
        superadditivity_report(
            get_function("sin_prod_2d"), (1, 1), (0.1, 0.1), math.inf, Box.unit(2), 2, SMALL
        )


@pytest.mark.parametrize("m", (2.5, math.nan, math.inf, 0, 1))
def test_superadditivity_rejects_a_bad_split_count_before_sweeping(m):
    calls = []

    def f(X):
        calls.append(X.shape)
        return np.zeros(X.shape[:-1])

    with pytest.raises(ValueError, match="subdivision count m"):
        superadditivity_report(f, (1, 1), (0.125, 0.125), 1.0, Box.unit(2), m, SMALL)
    assert calls == []


def test_superadditivity_reports_the_split_count_as_an_int():
    fn = get_function("exp_sum_2d")
    for m in (2.0, np.int64(2)):
        for rep in superadditivity_report(fn, (1, 1), (0.125, 0.125), 1.0, Box.unit(2), m, SMALL):
            assert type(rep.params["splits"]) is int and rep.params["splits"] == 2


def test_marchaud_kink_stability_and_integral_oracle():
    fn = get_function("abs_kink_1d")
    settings = VerifierSettings(grid=128, h_samples=9)
    rep = marchaud_report(fn, (1,), (2,), 0, (1.0 / 16.0,), 2.0, Box.unit(1), settings)
    c = rep.empirical_constant
    assert c is not None and np.isfinite(c) and c > 0
    # doubling the u grid moves the constant by at most 15 percent
    assert rep.details["u_refine_ratio"] == pytest.approx(1.0, abs=0.15)

    # independent trapezoid integration of the same integrand samples
    from mixsmooth.differences import ModulusRequest, modulus_sup

    t_i, delta, k_i = 1.0 / 16.0, 1.0, 1
    us = np.geomspace(t_i, delta, 200)
    vals = []
    for u in us:
        om = modulus_sup(
            ModulusRequest(r=(2,), t=(float(u),), p=2.0, box=Box.unit(1), h_samples=9, density=128),
            fn,
        )
        vals.append(om / u ** (k_i + 1))
    integral = float(np.trapezoid(vals, us))
    # package-side integral (recompute the bracket minus the norm term)
    from mixsmooth.domain import lp_quasinorm, sample_on_grid

    norm = lp_quasinorm(sample_on_grid(fn, Box.unit(1), 128), 2.0)
    package_bracket = rep.right / t_i**k_i
    package_integral = package_bracket - norm / delta**k_i
    assert package_integral == pytest.approx(integral, rel=2e-2)


@pytest.mark.parametrize("name", ["abs_kink_1d", "exp_sum_1d"])
@pytest.mark.parametrize("p", [0.5, 0.75])
def test_marchaud_below_one_matches_an_integral_oracle(name, p):
    # the p-th-power form: right^p = t^(k p) [integral + norm^p / delta^(k p)]
    from mixsmooth.differences import ModulusRequest, modulus_sup
    from mixsmooth.domain import lp_quasinorm, sample_on_grid

    fn = get_function(name)
    t_i, delta, k_i = 1.0 / 16.0, 1.0, 1
    rep = marchaud_report(fn, (1,), (2,), 0, (t_i,), p, Box.unit(1), VerifierSettings(grid=128))
    assert rep.details["form"] == "p<1"

    # independent trapezoid integration of om(u)^p / u^(k p + 1)
    us = np.geomspace(t_i, delta, 200)
    vals = [
        modulus_sup(
            ModulusRequest(r=(2,), t=(float(u),), p=p, box=Box.unit(1), h_samples=9, density=128),
            fn,
        )
        ** p
        / u ** (k_i * p + 1)
        for u in us
    ]
    integral = float(np.trapezoid(vals, us))
    norm = lp_quasinorm(sample_on_grid(fn, Box.unit(1), 128), p)
    package_integral = rep.right**p / t_i ** (k_i * p) - norm**p / delta ** (k_i * p)
    assert package_integral == pytest.approx(integral, rel=2e-2)


def test_marchaud_trivial_for_annihilated_member():
    # constants are annihilated on the left; the right keeps its norm term
    fn = get_function("const_2d")
    rep = marchaud_report(fn, (1, 2), (2, 2), 0, (0.125, 0.125), 2.0, Box.unit(2), SMALL)
    assert rep.left <= 1e-9
    assert rep.right > 0
    assert rep.empirical_constant == pytest.approx(0.0, abs=1e-9)
    assert rep.passed is None


# (t_axis, p) -> (left, right, constant_fine, u_refine_ratio) of exp_sum_2d at
# grid 8, 3 step samples, computed by the 24- and 48-cell u rules that the
# refinement rule reproduces for t_axis >= 2^-6
MARCHAUD_RECORDS = {
    (0.125, "0.5"): (0.0023535757740626275, 0.37362381737296657, 0.00629915224332718, 0.9999734588119368),
    (0.125, "1"): (0.003683622703036956, 0.36916477807084025, 0.009978261791451126, 1.0000000262613333),
    (0.0625, "0.5"): (0.0013534779437022213, 0.19256978285781104, 0.007028088538031555, 0.999940553129522),
    (0.0625, "1"): (0.0019817684730959293, 0.18468884386669523, 0.010730309134923986, 0.999999957293407),
}


def test_marchaud_fine_rule_splits_every_coarse_cell():
    fn = get_function("exp_sum_2d")
    settings = VerifierSettings(grid=8, h_samples=3)
    for t_axis in (0.125, 0.0625, 2.0**-13):
        for rep in _marchaud(fn, (1, 2), (2, 2), 0, (t_axis, 0.125), [0.5, 1.0], Box.unit(2), settings):
            m = rep.details["u_nodes"]
            assert rep.details["u_nodes_fine"] == 2 * m
            coarse = verifier._geometric_nodes(t_axis, 1.0, m)
            assert verifier._geometric_nodes(t_axis, 1.0, 2 * m)[::2].tobytes() == coarse.tobytes()
            if t_axis == 2.0**-13:
                # the ratio 2^(1/4), not the floor of 24, sets m (52 cells and
                # a rounding); the fine rule is no longer the same rule
                assert m in (52, 53) and rep.details["u_refine_ratio"] != 1.0
            else:
                assert m == 24
                details = rep.details
                got = (rep.left, rep.right, details["constant_fine"], details["u_refine_ratio"])
                assert got == MARCHAUD_RECORDS[t_axis, rep.params["p"]]


def test_marchaud_without_refine_h_skips_the_fine_rule(monkeypatch):
    fn = get_function("exp_sum_2d")
    args = (fn, (1, 2), (2, 2), 0, (0.125, 0.125), [0.5, 1.0], Box.unit(2))
    bounds = []
    sweeps = verifier._sup_sweeps
    counted = lambda fn, r, ts, *a, **kw: bounds.append(len(ts)) or sweeps(fn, r, ts, *a, **kw)
    monkeypatch.setattr(verifier, "_sup_sweeps", counted)
    refined = _marchaud(*args, VerifierSettings(8, 3))
    # the right side sweeps the u midpoints of both rules in one call
    assert bounds == [24 + 48]
    bounds.clear()
    coarse = _marchaud(*args, VerifierSettings(8, 3, refine_h=False))
    # the 24 u midpoints of the coarse rule, no 48-cell rule
    assert bounds == [24]
    for rep, rep_r in zip(coarse, refined, strict=True):
        assert (rep.left, rep.right) == (rep_r.left, rep_r.right)
        assert rep.empirical_constant == rep_r.empirical_constant
        details = rep.details
        assert details["u_nodes_fine"] == details["u_nodes"] == 24
        assert details["constant_fine"] == rep.empirical_constant
        assert details["u_refine_ratio"] == 1.0
        assert rep_r.details["u_nodes_fine"] == 48


@pytest.mark.parametrize("refine_h", [True, False])
def test_engine_passes_per_report(monkeypatch, refine_h):
    # Marchaud: the left side, then every step bound of the right side in
    # one pass; superadditivity: each of the 3 subsets' parent at both step
    # counts in one pass, and each of the 4 sub-boxes' 3 subsets
    calls = []
    fields = differences._fields
    monkeypatch.setattr(differences, "_fields", lambda *a: calls.append(1) or fields(*a))
    fn, box = get_function("exp_sum_2d"), Box.unit(2)
    settings = VerifierSettings(8, 3, refine_h=refine_h)
    marchaud_report(fn, (1, 2), (2, 2), 0, (0.125, 0.125), 0.5, box, settings)
    assert len(calls) == 2
    calls.clear()
    superadditivity_report(fn, (1, 1), (0.25, 0.25), 1.0, box, 2, settings)
    assert len(calls) == 3 + 4 * 3


def test_marchaud_report_runs_in_small_memory():
    # its 24 + 48 step bounds share one engine pass; 13 MB when the cloud's
    # midpoint and shift tables cover every step of that pass at once
    fn = get_function("exp_sum_2d")
    args = (fn, (1, 2), (2, 2), 0, (0.125, 0.125), 0.5, Box.unit(2), VerifierSettings(24, 17))
    want = marchaud_report(*args)  # warms the memos
    tracemalloc.start()
    try:
        got = marchaud_report(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2.5e6


def test_marchaud_parameter_validation():
    fn = get_function("exp_sum_2d")
    with pytest.raises(ValueError):
        marchaud_report(fn, (2, 2), (2, 2), 0, (0.1, 0.1), 2.0, Box.unit(2), SMALL)
    with pytest.raises(ValueError):
        marchaud_report(fn, (1, 1), (2, 2), 0, (0.1, 0.1), 2.0, Box.unit(2), SMALL)
    with pytest.raises(ValueError):
        marchaud_report(fn, (1, 2), (2, 2), 0, (1.5, 0.1), 2.0, Box.unit(2), SMALL)


def test_taylor_report_exp_d1_band():
    fn = get_function("exp_sum_1d")
    rep = taylor_report(fn, (2,), math.inf, (0.5, 0.25, 0.125), VerifierSettings(grid=64))
    assert rep.passed
    consts = [c for c in rep.details["constants"] if c is not None]
    assert all(0.1 <= c <= 1.0 for c in consts)


def test_taylor_report_exp_d2_stable():
    fn = get_function("exp_sum_2d")
    rep = taylor_report(fn, (1, 1), math.inf, (0.25, 0.125, 0.0625), SMALL)
    assert rep.passed
    for q in rep.details["ratios"]:
        assert 0.25 <= q <= 4.0


def test_taylor_report_member_vacuous():
    fn = get_function("bilinear_2d")
    rep = taylor_report(fn, (2, 2), 2.0, (0.25, 0.125), SMALL)
    assert rep.vacuous and rep.passed


@pytest.mark.parametrize("r, passed", [((1, 1), True), ((2, 2), False), ((3, 3), False)])
def test_taylor_band_verdict_on_a_polynomial_off_by_a_constant(r, passed):
    # f(0) + 1 as the base value leaves a remainder of about 1 on every box,
    # while the bracket shrinks like delta^m, m = min r_i: each halving
    # multiplies the constant by a little more than 2^m, inside the band
    # [0.25, 4] for m = 1 and outside it for m >= 2
    fn = get_function("exp_sum_2d")
    shifted = lambda s: (
        (lambda X, d=fn.derivative(s): d(X) + 1.0) if not any(s) else fn.derivative(s)
    )
    rep = taylor_report(replace(fn, derivative=shifted), r, 2.0, (0.25, 0.125, 0.0625), SMALL)
    assert not rep.vacuous and rep.passed is passed
    m = min(r)
    assert len(rep.details["ratios"]) == 2
    assert all(2.0**m < q < 2.0 ** (m + 1) for q in rep.details["ratios"])


def test_constant_bound_plane_oracle():
    # f(x, y) = x: the best constant is 1/2 with L_1 error 1/4
    fn = get_function("bilinear_2d")
    rep = constant_bound_report(fn, 1.0, Box.unit(2), SMALL)
    assert rep.passed
    linear = lambda X: X[..., 0]
    linear.__name__ = "plane"
    rep = constant_bound_report(linear, 1.0, Box.unit(2), VerifierSettings(grid=64, h_samples=9))
    assert rep.left == pytest.approx(0.25, abs=2e-3)
    assert rep.passed
    assert rep.details["beta"] == pytest.approx(0.5, abs=1e-2)


def test_constant_bound_singular_small_p():
    fn = get_function("holder_one_2d")
    rep = constant_bound_report(fn, 0.5, Box.unit(2), SMALL)
    assert rep.passed
    assert rep.left <= rep.right * 1.05 + 1e-9


def test_constant_bound_ratio_mode_above_one():
    fn = get_function("exp_sum_2d")
    rep = constant_bound_report(fn, 2.0, Box.unit(2), SMALL)
    assert rep.passed is None
    assert rep.empirical_constant is not None
    assert rep.details["mode"] == "ratio-only"


_FLOOR = 1e-9
_EDGE = 0.75 + _FLOOR  # bound 0.75 plus the floor, as the verdict adds them


@pytest.mark.parametrize(
    "left, right, bound, expected",
    [
        (_FLOOR, _FLOOR, 0.0, (True, True)),  # both sides at the floor: vacuous
        (_FLOOR, 1.0, 0.0, (False, True)),  # left within the additive floor
        (_EDGE, 1.0, 0.75, (False, True)),  # left == bound + floor passes
        (np.nextafter(_EDGE, math.inf), 1.0, 0.75, (False, False)),
        (np.nextafter(_FLOOR, math.inf), _FLOOR, 0.0, (False, False)),
    ],
)
def test_hard_check_verdict_at_its_boundaries(left, right, bound, expected):
    rep = _report("f", "check", {}, left, right, _FLOOR, {}, explicit=1.0, bound=bound)
    assert (rep.vacuous, rep.passed) == expected
    # nothing sampled: the same sides leave the hard record unresolved
    rep = _report(
        "f", "check", {}, left, right, _FLOOR, {}, explicit=1.0, bound=bound, unsampled=True
    )
    assert (rep.vacuous, rep.passed) == (expected[0], None)
    assert rep.details == {"coarse_grid_empty": True}


@pytest.mark.parametrize(
    "name", ["exp_sum_2d", "holder_half_2d", "spline_taper_2d", "trig_rand_2d_a"]
)
def test_constant_lemma_verdict_does_not_depend_on_the_box_size(name):
    # g(x) = f(x / a) on [0, a]^2 samples the same values as f on the unit
    # square; both sides are integrals over the box, so both scale by a^2
    fn = get_function(name)
    settings = VerifierSettings(grid=32, h_samples=9)
    ps = [0.5, 1.0, 2.0]
    unit = _constant_bound(fn, ps, Box.unit(2), settings)
    for a in (0.25, 4.0):
        dilated = lambda X, a=a: fn(X / a)
        dilated.__name__ = name
        for rep, rep_a in zip(unit, _constant_bound(dilated, ps, Box.cube(0.0, a, 2), settings)):
            assert (rep_a.vacuous, rep_a.passed) == (rep.vacuous, rep.passed), (a, rep.params["p"])
            assert rep_a.left == pytest.approx(a * a * rep.left, rel=1e-9)
            assert rep_a.empirical_constant == pytest.approx(rep.empirical_constant, rel=1e-9)
        assert [rep.passed for rep in unit] == [True, True, None]


# (a, lam) of g(x) = lam f(x / a) on [0, a]^2.  Powers of two leave the
# samples those of f on the unit square times lam, bit for bit, so only
# roundings may move a scale-free ratio.
_SCALINGS = [(2.0**-12, 1.0), (0.25, 1.0), (4.0, 1.0), (1.0, 2.0**-30), (1.0, 2.0**30)]
_SCALE_RTOL = 64 * np.finfo(float).eps


def _scaled(fn, a, lam):
    """``lam fn(x / a)``, its derivatives by the chain rule."""
    deriv = fn.derivative and (
        lambda s: lambda X, d=fn.derivative(s), c=lam * a ** -sum(s): c * d(X / a)
    )
    return replace(fn, f=lambda X: lam * fn.f(X / a), derivative=deriv)


def _records_on_the_box(fn, a):
    """Every check of ``fn`` on [0, a]^2 at grid 16, 5 step samples, with the
    suites' step bounds and Taylor's ladder in units of a; Marchaud for
    the functions of its suite row."""
    box, s, ps = Box.cube(0.0, a, 2), VerifierSettings(grid=16, h_samples=5), [0.5, 1.0, 2.0]
    reps = _constant_bound(fn, ps, box, s)
    if fn.name in verifier._SUITES["marchaud"].names:
        reps += _marchaud(fn, (1, 2), (2, 2), 0, (a / 8, a / 8), ps, box, s)
    for r in ((1, 1), (2, 2)):
        for per_p in (
            _whitney_pairs(fn, r, ps, box, s)
            + _equivalence_pairs(fn, r, (a / 2, a / 2), ps, box, s)
            + _superadditivity(fn, r, (a / 8, a / 8), ps, box, 2, s)
        ):
            reps += per_p
        if fn.has_derivatives:
            reps += [taylor_report(fn, r, p, (a / 4, a / 8, a / 16), s) for p in ps if p >= 1]
    return reps


def _scale_free(rep):
    return [rep.empirical_constant, rep.left / rep.right if rep.right else None]


@pytest.mark.parametrize("name", [e.name for e in corpus_entries(dim=2)])
def test_verdicts_do_not_depend_on_the_box_size_or_the_data_units(name):
    fn = get_function(name)
    unit = _records_on_the_box(fn, 1.0)
    for a, lam in _SCALINGS:
        for rep, rep_g in zip(unit, _records_on_the_box(_scaled(fn, a, lam), a), strict=True):
            case = (rep.check, rep.params.get("r"), rep.params["p"], a, lam)
            assert (rep_g.vacuous, rep_g.passed) == (rep.vacuous, rep.passed), case
            assert _scale_free(rep_g) == pytest.approx(_scale_free(rep), rel=_SCALE_RTOL), case


def test_every_numeric_record_follows_the_one_verdict_rule():
    reports = run_suite("all", VerifierSettings(grid=8, h_samples=3))
    numeric = [r for r in reports if r.check != "taylor" and not r.check.startswith("identity-")]
    assert {r.check for r in numeric} == {
        "whitney-lower",
        "whitney-ratio",
        "equivalence-mean-le-sup",
        "equivalence-ratio",
        "superadditivity-term",
        "superadditivity-total",
        "marchaud",
        "constant-lemma",
    }
    for rep in numeric:
        unsampled = rep.details.get("coarse_grid_empty", False)
        if rep.explicit_constant is not None:
            assert (rep.passed is None) == unsampled, rep.to_record()
            if rep.vacuous:
                assert rep.passed is (None if unsampled else True), rep.to_record()
        else:
            # an empirical record fails only on an infinite ratio
            assert rep.passed is None or (rep.passed is False and rep.empirical_constant is None)
        if rep.vacuous:
            assert rep.empirical_constant is None, rep.to_record()
    assert any(r.vacuous for r in numeric)
    assert any(r.details.get("coarse_grid_empty") for r in numeric)


def test_equivalence_ratio_takes_its_vacuous_flag_from_its_own_sides(monkeypatch):
    # with every mean 0 and the coarse sup grid empty, the ratio's sides
    # (coarse sup, mean) are both 0 while the hard record's refined sup is not
    zero_means = lambda fn, r, t, box, *, p_values, **kw: {
        e: dict.fromkeys(p_values, 0.0) for e in [(0,), (1,), (0, 1)]
    }
    monkeypatch.setattr(verifier, "total_mean_terms", zero_means)
    coarse = VerifierSettings(grid=8, h_samples=3)
    hard, ratio = equivalence_report(
        get_function("exp_sum_2d"), (2, 2), (0.5, 0.5), 1.0, Box.unit(2), coarse
    )
    assert hard.left == 0.0 and hard.right > 0.0 and not hard.vacuous
    assert ratio.left == ratio.right == 0.0 and ratio.vacuous
    assert ratio.passed is None and ratio.empirical_constant is None


def test_marchaud_right_side_at_the_floor_fails_its_ratio(monkeypatch):
    # the zero function's norm is 0, and a sweep that reads 1 for the lower
    # order k and 0 for r leaves the left side above the floor, the right at 0
    k = (1, 2)
    sweep = lambda fn, order, t, box, *, p_values, **kw: dict.fromkeys(
        p_values, 1.0 if tuple(order) == k else 0.0
    )
    monkeypatch.setattr(verifier, "sup_modulus_sweep", sweep)
    zero = lambda X: np.zeros(X.shape[:-1])
    rep = marchaud_report(zero, k, (2, 2), 0, (0.125, 0.125), 1.0, Box.unit(2), SMALL)
    assert (rep.left, rep.right) == (1.0, 0.0) and not rep.vacuous
    assert (rep.empirical_constant, rep.passed) == (None, False)
    assert rep.details["constant_fine"] is None and "u_refine_ratio" not in rep.details


def test_identity_suite_all_green():
    reports = suite_identities(VerifierSettings(seed=3), n_random=10)
    assert all(r.passed for r in reports)
    checks = {r.check for r in reports}
    assert checks == {
        "identity-unit-decomposition",
        "identity-halving",
        "identity-reproduction",
        "identity-annihilation",
    }


# the least identity suite: one decomposition, two halving orders, one polynomial per case
IDENTITY_SMALL = dict(max_dim=1, max_order=1, halving_orders=2, n_random=1)


def _at_or_above(threshold: float, above: bool) -> float:
    """``threshold`` itself, or the next float above it."""
    return float(np.nextafter(threshold, math.inf)) if above else threshold


def _identity(check: str):
    return {r.check: r for r in suite_identities(**IDENTITY_SMALL)}[check]


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
@pytest.mark.parametrize("side", ["member_residual", "identity_gap"])
def test_identity_reproduction_verdict_at_its_thresholds(monkeypatch, side, above):
    # a member's residual may reach 1e-9 (max|coeffs| + 1), the gap 1e-9 e^d
    def member(phi, r, box, h_list, x_spec):
        if side != "member_residual":
            return 0.0
        return _at_or_above(1e-9 * (float(np.abs(phi.coeffs).max()) + 1.0), above)

    def gap(f, r, box, h_list, x_spec):
        return _at_or_above(1e-9 * math.e ** len(r), above) if side == "identity_gap" else 0.0

    monkeypatch.setattr(verifier, "reproduction_residual", member)
    monkeypatch.setattr(verifier, "reproduction_identity_gap", gap)
    rep = _identity("identity-reproduction")
    assert [k for k, v in rep.details.items() if v > 0] == [
        f"{side}_{key}" for key in ("2", "3", "1x1", "2x2")
    ]
    assert rep.passed is (not above)


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_identity_annihilation_verdict_at_its_threshold(monkeypatch, above):
    class Half:
        """Every random polynomial is the constant 1/2, so the residual's
        scale, max|samples| + max|coeffs|, is exactly 1."""

        @staticmethod
        def random(r, rng):
            coeffs = np.zeros(r)
            coeffs[(0,) * len(r)] = 0.5
            return TensorPolynomial(coeffs)

    monkeypatch.setattr(verifier, "TensorPolynomial", Half)
    monkeypatch.setattr(verifier, "reproduction_residual", lambda *args: 0.0)
    monkeypatch.setattr(verifier, "reproduction_identity_gap", lambda *args: 0.0)
    monkeypatch.setattr(verifier, "annihilation_residual", lambda *args: _at_or_above(1e-9, above))
    rep = _identity("identity-annihilation")
    assert rep.left == _at_or_above(1e-9, above)
    assert rep.passed is (not above)


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_identity_halving_verdict_at_its_threshold(monkeypatch, above):
    # the witness of order k has degree k - 1
    def witness(k):
        return {(0,): Fraction(1), (k - 1 + above,): Fraction(1)}

    monkeypatch.setattr(verifier, "halving_identity", witness)
    rep = _identity("identity-halving")
    assert rep.details["witness_degrees"] == [k - 1 + above for k in (1, 2)]
    assert rep.passed is (not above)


def test_identity_suite_raises_a_failed_decomposition(monkeypatch, capsys):
    # a failed exact identity is a bug: it is raised, not recorded
    def broken(r):
        raise RuntimeError(f"unit decomposition failed exact verification for r={r}")

    monkeypatch.setattr(verifier, "unit_decomposition", broken)
    with pytest.raises(RuntimeError, match="failed exact verification"):
        suite_identities(**IDENTITY_SMALL)
    assert main(["verify", "--suite", "identities"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: unit decomposition failed")
    assert "Traceback" not in captured.err and captured.out == ""


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nope", SMALL)


BOX2 = Box.unit(2)

# Each suite's report calls for exp_sum_2d at r = (1, 1), as its table row
# should make them, and the exponents it takes of (inf, 2, 1, 0.5) in the
# order the suite sorts them (by their text).
TABLE_CASES = {
    "whitney": (
        (0.5, 1.0, 2.0, math.inf),
        lambda fn, p, s: whitney_report(fn, (1, 1), p, BOX2, s),
    ),
    "equivalence": (
        (0.5, 1.0, 2.0, math.inf),
        lambda fn, p, s: equivalence_report(fn, (1, 1), (0.5, 0.5), p, BOX2, s),
    ),
    "superadditivity": (
        (0.5, 1.0, 2.0),
        lambda fn, p, s: superadditivity_report(fn, (1, 1), (0.125, 0.125), p, BOX2, 2, s),
    ),
    "taylor": (
        (1.0, 2.0, math.inf),
        lambda fn, p, s: [taylor_report(fn, (1, 1), p, (0.25, 0.125, 0.0625), s)],
    ),
    # orders do not apply
    "marchaud": (
        (0.5, 1.0, 2.0, math.inf),
        lambda fn, p, s: [marchaud_report(fn, (1, 2), (2, 2), 0, (0.125, 0.125), p, BOX2, s)],
    ),
    "constant-lemma": (
        (0.5, 1.0, 2.0),
        lambda fn, p, s: [constant_bound_report(fn, p, BOX2, s)],
    ),
}


def _dump(reports):
    return [json.dumps(r.to_record(), sort_keys=True) for r in reports]


@pytest.mark.parametrize(
    "suite, refine_h",
    [pytest.param(suite, True, id=suite) for suite in sorted(TABLE_CASES)]
    + [pytest.param(suite, False, id=f"{suite}-unrefined") for suite in sorted(TABLE_CASES)],
)
def test_run_suite_row_matches_direct_report_calls(suite, refine_h):
    settings = replace(SMALL, refine_h=refine_h)
    ps, report = TABLE_CASES[suite]
    got = run_suite(
        suite, settings, names=["exp_sum_2d"], orders=((1, 1),), p_values=(math.inf, 2.0, 1.0, 0.5)
    )
    fn = get_function("exp_sum_2d")
    want = [rep for p in ps for rep in report(fn, p, settings)]
    assert _dump(got) == _dump(want)


TINY = VerifierSettings(grid=8, h_samples=3)


def test_run_suite_reports_do_not_depend_on_the_order_of_the_exponents():
    kwargs = dict(names=["exp_sum_2d"], orders=((1, 1),))
    ps = (0.5, 1.0, 2.0, math.inf)
    got = run_suite("all", TINY, p_values=ps, **kwargs)
    assert _dump(run_suite("all", TINY, p_values=ps[::-1], **kwargs)) == _dump(got)


@pytest.mark.parametrize("suite", sorted(s for s, row in verifier._SUITES.items() if row.dims))
def test_a_row_takes_exactly_the_exponents_its_builder_accepts(suite):
    row = verifier._SUITES[suite]
    fn = get_function("exp_sum_2d")
    (order,) = row.orders(2, ((1, 1),))
    for p in (0.5, 1.0, 2.0, math.inf):
        if row.takes(p):
            assert len(row.report(fn, order, [p], BOX2, TINY)) == 1
        else:
            with pytest.raises(ValueError):
                row.report(fn, order, [p], BOX2, TINY)


class _Counting:
    """A corpus function that counts the calls made to it."""

    def __init__(self, name):
        self.fn = get_function(name)
        self.name = name
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


# Each p-list builder at a few exponents, as the suite rows call it.
BUILDER_CASES = {
    "whitney": ((0.5, 2.0, math.inf), lambda fn, ps: _whitney_pairs(fn, (1, 1), ps, BOX2, SMALL)),
    "equivalence": (
        (0.5, 1.0, 2.0, math.inf),
        lambda fn, ps: _equivalence_pairs(fn, (1, 1), (0.5, 0.5), ps, BOX2, SMALL),
    ),
    "superadditivity": (
        (0.5, 1.0, 2.0),
        lambda fn, ps: _superadditivity(fn, (1, 1), (0.125, 0.125), ps, BOX2, 2, SMALL),
    ),
    "marchaud": (
        (0.5, 2.0),
        lambda fn, ps: _marchaud(fn, (1, 2), (2, 2), 0, (0.125, 0.125), ps, BOX2, SMALL),
    ),
    "constant-lemma": ((0.5, 1.0), lambda fn, ps: _constant_bound(fn, ps, BOX2, SMALL)),
}


@pytest.mark.parametrize("check", sorted(BUILDER_CASES))
def test_p_list_builder_samples_f_as_often_as_for_one_p(check):
    # the sweeps and the floor's sample serve every exponent at once
    ps, build = BUILDER_CASES[check]
    one, every = _Counting("exp_sum_2d"), _Counting("exp_sum_2d")
    build(one, ps[:1])
    reports = build(every, ps)
    assert len(reports) == len(ps)
    assert every.calls == one.calls > 0


def test_run_suite_identities_row_is_the_identity_suite():
    got = run_suite("identities", SMALL, names=["exp_sum_2d"])
    assert _dump(got) == _dump(suite_identities(SMALL))


def test_whitney_ratio_unresolved_when_no_coarse_step_samples_a_domain():
    # at r = 2 every nonzero coarse node (+-0.5, +-1) of 5 empties the domain
    fn = get_function("exp_sum_2d")
    for refine_h in (True, False):
        coarse = VerifierSettings(grid=12, h_samples=5, refine_h=refine_h)
        rep_a, rep_b = whitney_report(fn, (2, 2), 1.0, Box.unit(2), coarse)
        assert rep_b.right == 0.0 and rep_b.left > 0.0
        assert rep_b.passed is None and rep_b.empirical_constant is None
        assert rep_b.details["coarse_grid_empty"] is True
        # only the refined grid samples a step
        assert rep_a.passed and (rep_a.left > 0.0) == refine_h
        # a coarse grid that samples leaves the record as it was
        _, rep_b = whitney_report(fn, (1, 1), 1.0, Box.unit(2), coarse)
        assert rep_b.passed is None and rep_b.empirical_constant > 0.0
        assert "coarse_grid_empty" not in rep_b.details


def test_constant_lemma_and_equivalence_unresolved_when_no_coarse_step_samples_a_domain():
    # 3 step samples: the coarse nodes +-t shift by r t, which fills the box
    # for the constant lemma (r = 1, t = 1) and for equivalence at r = 2, t = 1/2
    fn = get_function("exp_sum_2d")
    box = Box.unit(2)
    for refine_h in (True, False):
        coarse = VerifierSettings(grid=8, h_samples=3, refine_h=refine_h)
        for p in (0.5, 1.0, 2.0):
            rep = constant_bound_report(fn, p, box, coarse)
            assert rep.right == 0.0 and rep.left > 0.0
            assert rep.passed is None and rep.empirical_constant is None
            assert rep.details["coarse_grid_empty"] is True
            hard, ratio = equivalence_report(fn, (2, 2), (0.5, 0.5), p, box, coarse)
            assert hard.details["omega_coarse"] == 0.0 and ratio.left == 0.0
            for rep in (hard, ratio):
                assert rep.passed is None and rep.empirical_constant is None
                assert rep.details["coarse_grid_empty"] is True
        # coarse grids that sample leave the records as they were
        sampling = VerifierSettings(grid=8, h_samples=5, refine_h=refine_h)
        rep = constant_bound_report(fn, 0.5, box, sampling)
        assert rep.passed is True and "coarse_grid_empty" not in rep.details
        for rep in equivalence_report(fn, (1, 1), (0.5, 0.5), 2.0, box, coarse):
            assert rep.passed is not False and "coarse_grid_empty" not in rep.details
        assert rep.empirical_constant > 0.0


_UNIT = Box.unit(2)
_SIXTEEN = VerifierSettings(grid=16, h_samples=5)


def test_whitney_ratio_unresolved_when_one_subset_samples_nothing():
    # r = (1, 2), 5 samples: axis 1's coarse nodes +-0.5, +-1 shift by 1 or 2,
    # which fills the unit box, so the (1,) and (0, 1) terms read 0 unsampled
    fn = get_function("trig_rand_2d_a")
    rep_a, rep_b = whitney_report(fn, (1, 2), 0.5, _UNIT, _SIXTEEN)
    assert rep_b.passed is None and rep_b.empirical_constant is None
    assert rep_b.details["coarse_grid_empty"] is True
    # the hard record's left side is the refined modulus, which samples every term
    fine = total_sup_terms(fn, (1, 2), (1.0, 1.0), _UNIT, density=16, h_samples=9, p_values=[0.5])
    assert all(term[0.5] > 0.0 for term in fine.values())
    assert rep_a.left == sum(fine[e][0.5] for e in fine)
    assert rep_a.passed is True and "coarse_grid_empty" not in rep_a.details


def test_equivalence_unresolved_when_one_subset_samples_nothing():
    fn = get_function("trig_rand_2d_a")
    for rep in _equivalence_pairs(fn, (1, 2), (1.0, 1.0), [0.5], _UNIT, _SIXTEEN)[0]:
        assert rep.passed is None and rep.empirical_constant is None
        assert rep.details["coarse_grid_empty"] is True


_ALL_SUBSETS = nonempty_axis_subsets(2)
_ONE_AXIS = [(0,), (1,)]


@pytest.mark.parametrize(
    "check, r, t, subsets, m, expected",
    [
        ("whitney", (1, 2), (1.0, 1.0), _ALL_SUBSETS, 5, True),  # (0,) alone samples
        ("whitney", (1, 2), (1.0, 1.0), _ALL_SUBSETS, 9, False),
        ("whitney", (1, 1), (1.0, 1.0), _ALL_SUBSETS, 3, True),  # no subset samples
        ("equivalence", (1, 2), (0.5, 0.5), _ALL_SUBSETS, 3, True),  # (0,) alone samples
        ("equivalence", (1, 1), (0.5, 0.5), _ALL_SUBSETS, 3, False),
        ("constant-lemma", (1, 1), (1.0, 1.0), _ONE_AXIS, 3, True),
        ("constant-lemma", (1, 1), (1.0, 1.0), _ONE_AXIS, 5, False),
    ],
)
def test_coarse_grid_empty_is_no_live_step_in_some_subset_sweep(check, r, t, subsets, m, expected):
    # one rule for the four record kinds that sum coarse sup terms
    bounds = _bits(_UNIT.lower + _UNIT.upper)
    live = []
    for e in subsets:
        order = restrict_order(r, e)
        steps, _ = differences._node_steps(False, order, _bits(t), m)
        plan = differences._plan(order, steps.shape, steps.tobytes(), bounds, (16, 16))
        live.append(plan.live.size)
    unsampled = 0 in live
    assert unsampled is expected
    fn = get_function("trig_rand_2d_a")
    s = VerifierSettings(grid=16, h_samples=m)
    if check == "whitney":
        reps = [rep for pair in _whitney_pairs(fn, r, [1.0], _UNIT, s) for rep in pair]
    elif check == "equivalence":
        reps = list(_equivalence_pairs(fn, r, t, [1.0], _UNIT, s)[0])
    else:
        reps = _constant_bound(fn, [1.0], _UNIT, s)
    for rep in reps:
        flagged = rep.details.get("coarse_grid_empty", False)
        assert flagged is (unsampled and rep.check != "whitney-lower"), rep.to_record()
        if flagged:
            assert rep.passed is None and rep.empirical_constant is None


def test_run_suite_whitney_subset_deterministic_records():
    reports = run_suite(
        "whitney",
        SMALL,
        names=["exp_sum_2d", "const_2d"],
        orders=((1, 1),),
        p_values=(1.0,),
    )
    recs = [r.to_record() for r in reports]
    assert [r["function"] for r in recs] == ["const_2d", "const_2d", "exp_sum_2d", "exp_sum_2d"]
    assert json.dumps(recs, sort_keys=True)  # records are JSON-serializable
    hard_fail = [r for r in recs if r["passed"] is False]
    assert not hard_fail


def test_record_keys_are_the_report_fields_in_order():
    for rep in run_suite("whitney", SMALL, names=["exp_sum_2d"], orders=((1, 1),), p_values=(1.0,)):
        assert list(rep.to_record()) == [f.name for f in fields(rep)]


def test_zero_function_trivial_reports():
    zero = lambda X: np.zeros(X.shape[:-1])
    zero.__name__ = "zero"
    rep = marchaud_report(zero, (1,), (2,), 0, (0.125,), 0.5, Box.unit(1), SMALL)
    assert rep.vacuous and rep.left == 0.0 and rep.passed is None
    reports = superadditivity_report(zero, (1, 1), (0.125, 0.125), 1.0, Box.unit(2), 2, SMALL)
    for r in reports:
        if r.check == "superadditivity-term":
            assert r.vacuous and r.passed


def test_every_name_the_benchmark_traces_exists():
    # perfbench/ is not a package, so its tracer is loaded by file path;
    # it resolves its targets by name and lists a missing one as absent
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
