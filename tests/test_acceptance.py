"""Acceptance suite: every shipped guarantee at its stated tolerance.

One test per criterion; each prints a single PASS line on success (run
with ``pytest -s tests/test_acceptance.py`` to watch them).  The heavy
shared computation (hard inequalities on the full d = 2 corpus at grid
64, 17 step samples) is done once in a module fixture.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from mixsmooth import differences, polyapprox
from mixsmooth.cli import main
from mixsmooth.corpus import corpus_entries, get_function
from mixsmooth.differences import ModulusRequest, modulus_sup
from mixsmooth.domain import Box, grid_points, nonempty_axis_subsets, sample_on_grid
from mixsmooth.identities import (
    annihilation_residual,
    halving_identity,
    reproduction_identity_gap,
    reproduction_residual,
    unit_decomposition,
)
from mixsmooth.polyapprox import TensorPolynomial, best_approx, best_constant
from mixsmooth.verifier import (
    VerifierSettings,
    _constant_bound,
    _equivalence_pairs,
    _marchaud,
    _superadditivity,
    _whitney_pairs,
    estimate_constants,
    taylor_report,
)

D2_NAMES = [e.name for e in corpus_entries(dim=2)]
ORDERS = ((1, 1), (2, 2))
P_VALUES = (0.5, 1.0, 2.0, math.inf)
HARD = VerifierSettings(grid=64, h_samples=17, seed=0, refine_h=False)
BOX2 = Box.unit(2)


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, detail


# -- criterion 1: exact identity suite --------------------------------------


def test_criterion_1_exact_identities():
    start = time.time()
    cases = 0
    for dim in (1, 2, 3):
        for r in itertools.product(range(1, 5), repeat=dim):
            unit_decomposition(r)  # raises unless the identity verifies exactly
            cases += 1
    for k in range(1, 11):
        halving_identity(k)  # raises on nonzero remainder or failed identity
    elapsed = time.time() - start
    _report(
        1,
        elapsed < 30.0,
        f"unit decompositions ({cases} orders, d<=3, r_i<=4) and halving k=1..10 "
        f"exact in {elapsed:.1f}s",
    )


# -- criterion 2: annihilation over random space members --------------------


def test_criterion_2_annihilation():
    start = time.time()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for dim, r in ((1, (3,)), (2, (2, 3)), (3, (2, 2, 2))):
        box = Box.unit(dim)
        pts = grid_points(box, 6 if dim < 3 else 4)
        h_grid = [h for h in np.linspace(-0.2, 0.2, 5) if h != 0.0]
        for _ in range(50):
            phi = TensorPolynomial.random(r, rng)
            scale = float(np.abs(phi(pts)).max())
            for e in nonempty_axis_subsets(dim):
                for h0 in h_grid:
                    resid = annihilation_residual(
                        phi, e, (h0,) * dim, box, 6 if dim < 3 else 4
                    )
                    worst = max(worst, resid / max(scale, 1e-300))
    elapsed = time.time() - start
    _report(
        2,
        worst <= 1e-9 and elapsed < 30.0,
        f"max relative mixed-difference residual {worst:.2e} over 150 random "
        f"members in {elapsed:.1f}s",
    )


# -- criterion 3: reproduction formula ---------------------------------------


def test_criterion_3_reproduction():
    rng = np.random.default_rng(99)
    worst_member = 0.0
    for r in ((2,), (3,), (1, 1), (2, 2)):
        dim = len(r)
        box = Box.unit(dim)
        h_list = [(0.05,) * dim, (-0.08,) * dim, (0.11,) * dim]
        phi = TensorPolynomial.random(r, rng)
        scale = float(np.abs(phi(grid_points(box, 8))).max())
        resid = reproduction_residual(phi, r, box, h_list, 12)
        worst_member = max(worst_member, resid / max(scale, 1e-300))
    worst_gap = 0.0
    for name in ("exp_sum_1d", "sin_prod_1d", "exp_sum_2d", "holder_half_2d"):
        fn = get_function(name)
        box = Box.unit(fn.dim)
        h_list = [(0.05,) * fn.dim, (0.09,) * fn.dim]
        scale = float(np.abs(fn(grid_points(box, 12))).max())
        for r in ((1,) * fn.dim, (2,) * fn.dim):
            gap = reproduction_identity_gap(fn, r, box, h_list, 12)
            worst_gap = max(worst_gap, gap / max(scale, 1.0))
    _report(
        3,
        worst_member <= 1e-9 and worst_gap <= 1e-9,
        f"member residual {worst_member:.2e}, pointwise identity gap {worst_gap:.2e}",
    )


# -- criterion 4: closed-form oracles ----------------------------------------


def test_criterion_4_closed_form_oracles():
    start = time.time()
    n = 256
    g = sample_on_grid(lambda X: X[..., 0] ** 2, Box.unit(1), n)
    e2 = best_approx(g, (2,), 2.0).error
    ok_e2 = abs(e2 - 1.0 / (6.0 * math.sqrt(5.0))) <= 1e-3

    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), n)
    einf = best_approx(g, (1,), math.inf).error
    ok_einf = abs(einf - 0.5) <= 1.0 / n

    h_samples = 9
    om = modulus_sup(
        ModulusRequest(
            r=(1,), t=(0.3,), p=math.inf, box=Box.unit(1), h_samples=h_samples, density=n
        ),
        lambda X: X[..., 0],
    )
    ok_om = abs(om - 0.3) <= 2.0 / h_samples

    g = sample_on_grid(lambda X: X[..., 0], Box.unit(1), 1024)
    beta, err = best_constant(g, 1.0)
    ok_bc = abs(beta - 0.5) <= 1e-3 and abs(err - 0.25) <= 1e-3
    elapsed = time.time() - start
    _report(
        4,
        ok_e2 and ok_einf and ok_om and ok_bc and elapsed < 60.0,
        f"E2(x^2)={e2:.6f}, Einf(x)={einf:.6f}, omega1(x,0.3)={om:.6f}, "
        f"best_constant=({beta:.4f},{err:.4f}) in {elapsed:.1f}s",
    )


# -- criteria 5 and 6: the corpus inequality sweep ---------------------------


@pytest.fixture(scope="module")
def hard_sweep():
    """All hard-check reports on the shipped d=2 corpus at grid 64, 17 steps.

    Each builder returns one entry per exponent, in the order given, from
    one set of sweeps for all of them.
    """
    data = {"whitney": [], "equivalence": [], "superadd": [], "constant": []}
    t_delta = tuple(BOX2.size)
    finite = [p for p in P_VALUES if p != math.inf]
    for name in D2_NAMES:
        fn = get_function(name)
        for r in ORDERS:
            data["whitney"] += _whitney_pairs(fn, r, P_VALUES, BOX2, HARD)
            data["equivalence"] += _equivalence_pairs(fn, r, t_delta, P_VALUES, BOX2, HARD)
            data["superadd"] += _superadditivity(fn, r, (0.125, 0.125), finite, BOX2, 2, HARD)
        data["constant"] += _constant_bound(fn, (0.5, 1.0), BOX2, HARD)
    return data


def test_criterion_5_hard_inequalities(hard_sweep):
    start = time.time()
    failures = []

    for rep_a, _ in hard_sweep["whitney"]:
        if rep_a.passed is not True:
            failures.append(("whitney-lower", rep_a.function, rep_a.params["p"]))

    for hard, _ in hard_sweep["equivalence"]:
        # the criterion's literal form: W <= Omega * (1 + 1e-3), no inflation
        if hard.vacuous:
            continue
        if not hard.left <= hard.details["omega_coarse"] * (1.0 + 1e-3) + 1e-9:
            failures.append(("mean-le-sup", hard.function, hard.params["p"]))

    for reports in hard_sweep["superadd"]:
        for rep in reports:
            if rep.check == "superadditivity-term" and rep.passed is not True:
                failures.append(("superadditivity", rep.function, rep.params["p"]))

    for rep in hard_sweep["constant"]:
        if rep.passed is not True:
            failures.append(("constant-lemma", rep.function, rep.params["p"]))

    n_checks = (
        len(hard_sweep["whitney"])
        + len(hard_sweep["equivalence"])
        + sum(len(r) - 1 for r in hard_sweep["superadd"])
        + len(hard_sweep["constant"])
    )
    _report(
        5,
        not failures,
        f"{n_checks} hard checks on {len(D2_NAMES)} corpus functions, "
        f"failures: {failures[:8] or 'none'} (+{max(0, time.time() - start):.0f}s)",
    )


def test_criterion_6_empirical_constants(hard_sweep):
    start = time.time()
    problems = []

    # upper-Whitney ratio: finite on the corpus, and its aggregate and
    # per-function values move < 10 percent under one grid doubling
    for r in ORDERS:
        aggs = estimate_constants(D2_NAMES, r, P_VALUES, grids=[64, 128], seed=7)
        for p, agg in zip(P_VALUES, aggs):
            if not (agg["levels"][0]["max_ratio"] > 0 and np.isfinite(agg["levels"][0]["max_ratio"])):
                problems.append(("whitney-ratio-finite", r, p))
            delta = agg["deltas"][0]
            if delta["max_ratio_delta"] > 0.10:
                problems.append(("whitney-ratio-aggregate", r, p, delta["max_ratio_delta"]))
            worst = max(delta["per_function"].values(), default=0.0)
            if worst > 0.10:
                problems.append(("whitney-ratio-perfn", r, p, worst))

    # Omega / W upper constant: finite wherever not vacuous
    for _, ratio in hard_sweep["equivalence"]:
        if not ratio.vacuous and ratio.empirical_constant is not None:
            if not np.isfinite(ratio.empirical_constant):
                problems.append(("omega-over-w", ratio.function))

    # Taylor: constants finite and the ladder ratio inside [1/4, 4]
    taylor_settings = VerifierSettings(grid=48, h_samples=9)
    for name in [e.name for e in corpus_entries(dim=2) if e.has_derivatives]:
        fn = get_function(name)
        for r in ORDERS:
            for p in (2.0, math.inf):
                rep = taylor_report(fn, r, p, (0.25, 0.125, 0.0625), taylor_settings)
                if rep.passed is not True:
                    problems.append(("taylor", name, r, p, rep.details["ratios"]))

    # Marchaud: constants finite, stable within a factor 4 under u-doubling
    march_settings = VerifierSettings(grid=48, h_samples=9)
    for name in ("exp_sum_2d", "sin_prod_2d", "holder_half_2d", "spline_prod_2d"):
        fn = get_function(name)
        ps = (0.5, 2.0)
        reps = _marchaud(fn, (1, 2), (2, 2), 0, (0.125, 0.125), ps, BOX2, march_settings)
        for p, rep in zip(ps, reps):
            c = rep.empirical_constant
            if rep.vacuous:
                continue
            if c is None or not np.isfinite(c):
                problems.append(("marchaud-finite", name, p))
            elif "u_refine_ratio" in rep.details:
                q = rep.details["u_refine_ratio"]
                if not (0.25 <= q <= 4.0):
                    problems.append(("marchaud-stability", name, p, q))
    elapsed = time.time() - start
    _report(
        6,
        not problems and elapsed < 600.0,
        f"problems: {problems[:6] or 'none'} in {elapsed:.0f}s",
    )


# -- criterion 7: byte-identical verification reports ------------------------


def test_criterion_7_determinism(tmp_path):
    out = tmp_path / "verify_all.json"
    args = [
        "verify", "--suite", "all", "--seed", "7",
        "--grid", "16", "--hsamples", "9", "--out", str(out),
    ]
    # the first run starts from empty geometry memos, the second from full ones
    for memo in (differences._plan, differences._node_steps, polyapprox._basis_of):
        memo.cache_clear()
    code_first = main(args)
    first = out.read_bytes()
    code_second = main(args)
    second = out.read_bytes()
    doc = json.loads(first)
    _report(
        7,
        code_first == 0 and code_second == 0 and first == second,
        f"verify all --seed 7 twice: {len(first)} bytes, "
        f"{doc['summary']['total_checks']} checks, exit {code_first}/{code_second}, "
        f"identical={first == second} (cold memos, then warm)",
    )


# -- criterion 8: p = 2 solver against the dense projection oracle -----------


def test_criterion_8_projection_oracle():
    worst = 0.0
    names = D2_NAMES[:10]
    for name in names:
        fn = get_function(name)
        g = sample_on_grid(fn, BOX2, 32)
        res = best_approx(g, (2, 2), 2.0)
        pts = g.midpoints().reshape(-1, 2)
        cols = [pts[:, 0] ** sx * pts[:, 1] ** sy for sx in range(2) for sy in range(2)]
        A = np.stack(cols, axis=1)
        sol, *_ = np.linalg.lstsq(A, g.values.reshape(-1), rcond=None)
        resid = g.values.reshape(-1) - A @ sol
        oracle = math.sqrt(float((resid**2).sum() * g.cell_volume))
        worst = max(worst, abs(res.error - oracle) / max(oracle, 1.0))
    _report(
        8,
        worst <= 1e-10,
        f"max deviation from the dense least-squares oracle {worst:.2e} "
        f"over {len(names)} corpus functions",
    )
