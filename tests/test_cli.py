import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsmooth.cli import APPROX_OPS, COMPUTE_OPS, RunConfig, _build_parser, main
from mixsmooth.verifier import SUITE_NAMES


def run_json(tmp_path, args, name="report.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_compute_modulus_sup_linear(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["compute", "modulus-sup", "--fn", "linear_1d", "--r", "1", "--p", "inf", "--t", "0.3"],
    )
    assert code == 0
    assert doc["schema_version"] == 1
    rec = doc["records"][0]
    assert rec["value"] == pytest.approx(0.3, abs=1e-9)
    assert doc["config"]["fn"] == "linear_1d"


def test_compute_difference_member_annihilated(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["compute", "difference", "--fn", "bilinear_2d", "--r", "2,2", "--t", "0.1,0.1"],
    )
    assert code == 0
    assert doc["records"][0]["value"] <= 1e-9


def test_compute_total_omega_lists_terms(tmp_path):
    code, doc = run_json(
        tmp_path,
        [
            "compute", "total-omega",
            "--fn", "sin_prod_2d", "--r", "1,1", "--p", "2", "--t", "0.25,0.25",
            "--grid", "16", "--hsamples", "5",
        ],
    )
    assert code == 0
    rec = doc["records"][0]
    assert set(rec["terms"]) == {"0", "1", "0,1"}
    assert rec["value"] == pytest.approx(sum(rec["terms"].values()), rel=1e-12)


def test_mean_moduli_at_p_inf_are_the_sup_moduli(tmp_path):
    # the p-mean modulus at p = inf is the sup, which needs no step box:
    # a zero bound on an active axis is no config error there
    common = ["--fn", "sin_prod_2d", "--r", "1,1", "--p", "inf", "--grid", "16", "--hsamples", "5"]
    for t, (mean, sup) in [
        ("0.25,0.25", ("modulus-mean", "modulus-sup")),
        ("0.25,0.25", ("total-w", "total-omega")),
        ("0,0.1", ("total-w", "total-omega")),
    ]:
        recs = []
        for op in (mean, sup):
            code, doc = run_json(tmp_path, ["compute", op, *common, "--t", t], name=f"{op}.json")
            assert code == 0
            recs.append(doc["records"][0])
        assert recs[0]["value"] == recs[1]["value"]
        assert recs[0].get("terms") == recs[1].get("terms")
    assert "terms" in recs[0] and recs[0]["terms"]["0"] == 0.0


def test_approx_best_projection_oracle(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["approx", "best", "--fn", "square_1d", "--r", "2", "--p", "2", "--grid", "256"],
    )
    assert code == 0
    rec = doc["records"][0]
    assert rec["error"] == pytest.approx(1 / (6 * math.sqrt(5)), abs=1e-3)
    assert len(rec["coefficients"]) == 2


def test_approx_constant_oracle(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["approx", "constant", "--fn", "linear_1d", "--p", "1", "--grid", "1024"],
    )
    assert code == 0
    rec = doc["records"][0]
    assert rec["beta"] == pytest.approx(0.5, abs=1e-3)
    assert rec["error"] == pytest.approx(0.25, abs=1e-3)


def test_approx_taylor_exp_mixed(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["approx", "taylor", "--fn", "exp_sum_2d", "--r", "2,2", "--grid", "16"],
    )
    assert code == 0
    coeffs = {
        tuple(c["exponents"]): c["coefficient"] for c in doc["records"][0]["coefficients"]
    }
    for e in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert coeffs[e] == pytest.approx(1.0, abs=1e-12)


def test_approx_piecewise(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["approx", "piecewise", "--fn", "linear_1d", "--p", "1", "--grid", "512", "--splits", "2"],
    )
    assert code == 0
    assert doc["records"][0]["error"] == pytest.approx(1 / 8, abs=1e-3)


def test_verify_identities_exit_zero(tmp_path):
    code, doc = run_json(tmp_path, ["verify", "--suite", "identities"])
    assert code == 0
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["hard_checks"] == 4


def test_verify_whitney_member_vacuous(tmp_path):
    code, doc = run_json(
        tmp_path,
        [
            "verify", "--suite", "whitney", "--fn", "const_2d",
            "--grid", "12", "--hsamples", "7",
        ],
    )
    assert code == 0
    assert all(r["vacuous"] for r in doc["records"])


def test_verify_reports_are_byte_identical(tmp_path):
    out = tmp_path / "rep.json"
    args = [
        "verify", "--suite", "equivalence", "--fn", "spline_prod_2d",
        "--grid", "10", "--hsamples", "5", "--seed", "7", "--out", str(out),
    ]
    assert main(args) == 0
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first


def test_verify_summary_holds_the_largest_float_constant_of_each_check(tmp_path):
    args = ["verify", "--suite", "all", "--fn", "exp_sum_2d", "--grid", "8", "--hsamples", "5"]
    code, doc = run_json(tmp_path, args)
    assert code == 0
    per_check: dict = {}
    for rec in doc["records"]:
        per_check.setdefault(rec["check"], []).append(rec["empirical_constant"])
    want = {}
    for check, values in per_check.items():
        floats = [v for v in values if isinstance(v, float)]
        want[check] = max(floats) if floats else None
    got = doc["summary"]["empirical_constants"]
    # whitney-ratio mixes unresolved (None) records with resolved ones
    assert None in per_check["whitney-ratio"] and got["whitney-ratio"] is not None
    assert got == want and list(got) == sorted(want)


def test_corpus_listing_and_filters(tmp_path, capsys):
    assert main(["corpus"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 12

    code, doc = run_json(tmp_path, ["corpus", "--tag", "holder-singular"])
    assert code == 0
    assert {r["tag"] for r in doc["records"]} == {"holder-singular"}
    assert all("holder" in r["name"] or "kink" in r["name"] for r in doc["records"])

    code, doc = run_json(tmp_path, ["corpus", "--tag", "no-such-tag"])
    assert code == 0
    assert doc["records"] == []


def test_csv_format(tmp_path):
    out = tmp_path / "rep.csv"
    code = main(
        [
            "approx", "constant", "--fn", "linear_1d", "--p", "1",
            "--grid", "64", "--format", "csv", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "beta" in header and "error" in header


def test_config_file_roundtrip_and_flag_priority(tmp_path):
    cfg = RunConfig(
        command="compute",
        op="modulus-sup",
        fn="linear_1d",
        r=(1,),
        p=math.inf,
        t=(0.3,),
        grid=(32,),
        hsamples=9,
        seed=3,
    )
    text = cfg.to_ini()
    assert RunConfig.from_ini(text) == cfg

    path = tmp_path / "run.cfg"
    path.write_text(text)
    out = tmp_path / "rep.json"
    # flag overrides the config's t
    code = main(
        ["compute", "modulus-sup", "--config", str(path), "--t", "0.1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["records"][0]["value"] == pytest.approx(0.1, abs=1e-12)
    assert doc["config"]["t"] == "0.1"


def test_config_command_section_overrides_run(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[run]\ncommand = compute\nop = modulus-sup\nfn = linear_1d\n"
        "r = 1\np = inf\nt = 0.3\n\n[compute]\nt = 0.2\n"
    )
    out = tmp_path / "rep.json"
    assert main(["compute", "modulus-sup", "--config", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["records"][0]["value"] == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("run_command", ["", "command = compute\n"], ids=["no-key", "compute-key"])
def test_config_section_of_the_running_subcommand_always_applies(tmp_path, capsys, run_command):
    # the command line names the subcommand, whatever [run] command says
    out = tmp_path / "rep.json"
    path = tmp_path / "run.cfg"
    path.write_text(f"[run]\n{run_command}suite = identities\n\n[verify]\nout = {out}\n")
    assert main(["verify", "--config", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["config"]["suite"] == "identities"


def test_config_file_names_neither_the_subcommand_nor_the_op(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\ncommand = compute\nop = modulus-sup\nsuite = identities\n")
    code, doc = run_json(tmp_path, ["verify", "--config", str(path)])
    assert code == 0
    assert (doc["config"]["command"], doc["config"]["op"]) == ("verify", "")


def test_a_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: mixsmooth") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, needle",
    [
        (None, "cannot read config file"),
        ("suite = identities\n", "bad config file: File contains no section headers"),
        (b"[run]\nsuite = \xff\n", "cannot read config file"),
    ],
    ids=["missing", "no-section-header", "not-utf-8"],
)
def test_an_unreadable_config_file_is_a_config_error(tmp_path, capsys, text, needle):
    path = tmp_path / "run.cfg"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    err = _config_error(capsys, ["verify", "--config", str(path)])
    assert needle in err and len(err.splitlines()) == 1


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    assert main(["compute", "modulus-sup"]) == 2  # missing --fn
    assert main(["compute", "modulus-sup", "--fn", "nope", "--r", "1", "--p", "1", "--t", ".1"]) == 2
    assert main(["compute", "modulus-sup", "--fn", "linear_1d", "--p", "1", "--t", ".1"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[run]\nnotakey = 1\n")
    assert main(["verify", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_exit_code_1_on_numeric_failure(capsys):
    # exp overflows on this box: valid flags, non-finite samples
    with np.errstate(over="ignore"):
        code = main(
            ["approx", "best", "--fn", "exp_sum_1d", "--box", "0,1000", "--r", "2", "--p", "2"]
        )
    assert code == 1
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        # the lower Whitney constant overflows at a tiny exponent
        ["verify", "--suite", "whitney", "--fn", "exp_sum_1d", "--grid", "8", "--hsamples", "3"]
        + ["--p", "1e-5"],
    ],
    ids=["tiny-p"],
)
def test_overflow_is_a_numeric_failure(args, capsys):
    with np.errstate(all="ignore"):
        code = main(args)
    assert code == 1
    assert capsys.readouterr().err.startswith("numeric failure: ")


def test_tiny_exponent_marchaud_report_is_strict_json(tmp_path):
    # the right side is a numpy float there, so its vacuous flag is a numpy bool
    args = ["verify", "--suite", "marchaud", "--fn", "exp_sum_1d", "--grid", "8", "--hsamples", "3"]
    out = tmp_path / "report.json"
    assert main(args + ["--p", "1e-5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert all(type(rec["vacuous"]) is bool for rec in doc["records"])


def test_p_zero_rejected_as_config_error(capsys):
    code = main(
        ["compute", "modulus-sup", "--fn", "linear_1d", "--r", "1", "--p", "0", "--t", "0.1"]
    )
    assert code == 2
    capsys.readouterr()


def _config_error(capsys, args):
    code = main(args)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "numeric failure" not in err
    return err


def test_hsamples_below_two_is_config_error(capsys):
    err = _config_error(capsys, ["verify", "--suite", "whitney", "--fn", "const_2d", "--hsamples", "1"])
    assert "--hsamples" in err


def test_verify_rejects_two_step_samples_which_compute_takes(capsys):
    # two samples refine by the zero step alone, so the refinement gap reads 0
    args = ["verify", "--suite", "equivalence", "--fn", "exp_sum_1d", "--grid", "8"]
    assert "--hsamples" in _config_error(capsys, args + ["--hsamples", "2"])
    compute = ["compute", "modulus-sup", "--fn", "linear_1d", "--r", "1", "--p", "1", "--t", "0.3"]
    assert main(compute + ["--hsamples", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["compute", "total-omega", "--fn", "sin_prod_2d", "--p", "1", "--t", "0.25"],
        ["approx", "best", "--fn", "sin_prod_2d", "--p", "1"],
        ["approx", "taylor", "--fn", "sin_prod_2d"],
        ["verify", "--suite", "whitney", "--fn", "sin_prod_2d"],
    ],
)
def test_every_op_that_needs_orders_of_at_least_one_rejects_zero(capsys, args):
    assert "--r" in _config_error(capsys, args + ["--r", "0", "--grid", "2"])


def test_negative_step_bound_is_config_error(capsys):
    args = ["compute", "modulus-sup", "--fn", "linear_1d", "--r", "1", "--p", "1"]
    assert "--t" in _config_error(capsys, args + ["--t", "-0.5"])
    # a difference step may be negative
    assert main(["compute", "difference", "--fn", "linear_1d", "--r", "1", "--t=-0.25"]) == 0
    capsys.readouterr()


def test_a_difference_step_is_not_a_step_bound(tmp_path, capsys):
    # 2 t overflows, but a difference has no step box: its domain is empty
    args = ["compute", "difference", "--fn", "linear_1d", "--r", "1"]
    code, doc = run_json(tmp_path, args + ["--t", "1e308"])
    assert code == 0
    (record,) = doc["records"]
    assert record["empty_domain"] is True and record["value"] is None
    assert "--t entries must be finite" in _config_error(capsys, args + ["--t", "inf"])
    # a shift r h that overflows empties the domain too, with no warning
    args = ["compute", "difference", "--fn", "bilinear_2d", "--r", "2,1", "--t", "1e308,-1e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, doc = run_json(tmp_path, args)
    assert code == 0 and doc["records"][0]["empty_domain"] is True
    assert capsys.readouterr().err == ""


def test_a_large_p_modulus_is_bracketed_by_its_p_inf_value(tmp_path):
    # each step's domain is [0, 1 - |h|]^2 with |h| <= 0.01: 16 cells per
    # axis, each at least 0.99 / 16 wide, so omega_p >= cv^(1/p) omega_inf.
    # The largest |D| dominates the sum at p = 150, so the lower bound is
    # met to within rounding: 1e-14 relative covers it
    args = ["compute", "modulus-sup", "--fn", "holder_half_2d", "--r", "1", "--t", "0.01"]
    value = {}
    for p in ("50", "150", "inf"):
        code, doc = run_json(tmp_path, args + ["--grid", "16", "--p", p], f"{p}.json")
        assert code == 0
        value[p] = doc["records"][0]["value"]
    cv = (0.99 / 16) ** 2
    assert cv ** (1 / 150) * value["inf"] <= value["150"] * (1 + 1e-14)
    assert value["150"] <= value["inf"]
    assert 0 < value["50"] <= value["150"]


def test_zero_splits_is_config_error(capsys):
    args = ["approx", "piecewise", "--fn", "linear_1d", "--p", "1", "--grid", "8"]
    assert "--splits" in _config_error(capsys, args + ["--splits", "0"])
    assert "--splits" in _config_error(capsys, args + ["--splits", "3"])


def test_underdetermined_grid_is_config_error(capsys):
    err = _config_error(
        capsys, ["approx", "best", "--fn", "exp_sum_2d", "--r", "2,2", "--grid", "3", "--p", "1"]
    )
    assert "underdetermined" in err


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "whitney", "--fn", "exp_sum_1d", "--grid", "3"],
        ["--suite", "all", "--fn", "exp_sum_2d", "--grid", "2"],
    ],
)
def test_verify_underdetermined_whitney_grid_is_config_error(capsys, args):
    err = _config_error(capsys, ["verify", *args, "--hsamples", "3"])
    assert "--grid" in err and "underdetermined for degree bound 2" in err


def test_verify_without_a_fit_takes_a_grid_a_fit_would_reject(tmp_path):
    args = ["--suite", "equivalence", "--fn", "exp_sum_2d", "--grid", "3", "--hsamples", "3"]
    code, doc = run_json(tmp_path, ["verify", *args, "--r", "2"])
    assert code == 0 and doc["records"]


def test_verify_rejects_a_function_no_suite_covers(capsys):
    assert "dimension 3" in _config_error(capsys, ["verify", "--suite", "all", "--fn", "exp_sum_3d"])
    assert "dimension 1" in _config_error(
        capsys, ["verify", "--suite", "constant-lemma", "--fn", "exp_sum_1d"]
    )
    # no derivative data, so the Taylor suite has nothing to check
    assert "no checks" in _config_error(capsys, ["verify", "--suite", "taylor", "--fn", "holder_half_2d"])


def test_verify_whitney_on_a_1d_function_derives_orders(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["verify", "--suite", "whitney", "--fn", "exp_sum_1d", "--grid", "16", "--hsamples", "7"],
    )
    assert code == 0
    assert {tuple(r["params"]["r"]) for r in doc["records"]} == {(1,), (2,)}
    assert doc["summary"]["hard_checks"] == 8 and doc["summary"]["failed"] == 0


def test_config_roundtrip_keeps_every_digit_of_p():
    for p in (0.123456789, 1.0 / 3.0, 0.5, 1.0, 2.0, 1e-7, math.inf):
        cfg = RunConfig(command="approx", op="constant", fn="linear_1d", p=p)
        assert RunConfig.from_ini(cfg.to_ini()) == cfg
    # short forms are unchanged
    assert [RunConfig(p=p).to_strings()["p"] for p in (0.5, 1.0, math.inf)] == ["0.5", "1", "inf"]
    assert RunConfig(p=0.123456789).to_strings()["p"] == "0.123456789"


def test_jobs_flag_and_config_key_are_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "identities", "--jobs", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in err and "Traceback" not in err
    path = tmp_path / "jobs.cfg"
    path.write_text("[run]\ncommand = verify\nsuite = identities\n\n[verify]\njobs = 2\n")
    assert "unknown config keys: ['jobs']" in _config_error(capsys, ["verify", "--config", str(path)])


def test_verify_whitney_exits_zero_when_the_coarse_step_grid_samples_nothing(tmp_path):
    code, doc = run_json(
        tmp_path,
        ["verify", "--suite", "whitney", "--fn", "exp_sum_2d", "--grid", "12", "--hsamples", "5"],
    )
    assert code == 0
    unresolved = [r for r in doc["records"] if r["details"].get("coarse_grid_empty")]
    assert len(unresolved) == 4
    assert all(r["check"] == "whitney-ratio" and r["params"]["r"] == [2, 2] for r in unresolved)
    assert all(r["passed"] is None and r["empirical_constant"] is None for r in unresolved)


def test_verify_all_exits_zero_when_the_coarse_step_grid_samples_nothing(tmp_path):
    # 3 step samples: the constant lemma's coarse grid and that of the
    # r = (2, 2) equivalence sweeps at t = 1/2 sample no step
    code, doc = run_json(
        tmp_path,
        ["verify", "--suite", "all", "--fn", "exp_sum_2d", "--grid", "8", "--hsamples", "3"],
    )
    assert code == 0
    unresolved = {r["check"] for r in doc["records"] if r["details"].get("coarse_grid_empty")}
    assert unresolved == {
        "whitney-ratio",
        "equivalence-mean-le-sup",
        "equivalence-ratio",
        "constant-lemma",
    }
    assert not [r for r in doc["records"] if r["passed"] is False]


@pytest.mark.parametrize(
    "args, needle",
    [
        (["verify", "--suite", "whitney", "--fn", "exp_sum_2d", "--seed", "-1",
          "--grid", "8", "--hsamples", "3"], "--seed"),
        (["verify", "--grid", "0"], "grid entries must be positive"),
        (["verify", "--suite", "whitney", "--fn", "exp_sum_2d", "--grid", "8,8,8"],
         "--grid needs 1 or 2 entries"),
        (["compute", "modulus-mean", "--fn", "exp_sum_1d", "--r", "1", "--p", "2",
          "--t", "inf"], "--t entries must be finite"),
        (["approx", "taylor", "--fn", "exp_sum_1d", "--r", "2", "--p", "-1"], "--p must be positive"),
        # a finite step bound whose step box 2 t overflows
        (["compute", "modulus-mean", "--fn", "exp_sum_1d", "--r", "1", "--p", "1",
          "--t", "1e308", "--grid", "4", "--hsamples", "5"], "with 2 t finite"),
        (["compute", "difference", "--fn", "linear_1d", "--r", "-1", "--t", "0.1"],
         "--r entries must be non-negative"),
        (["compute", "modulus-mean", "--fn", "linear_1d", "--r", "1", "--p", "1", "--t", "0"],
         "the mean modulus needs --t > 0"),
        (["compute", "modulus-sup", "--fn", "exp_sum_2d", "--r", "1", "--p", "1", "--t", "0.1",
          "--box", "0,1,0"], "--box needs 4 numbers"),
        (["compute", "modulus-sup", "--fn", "exp_sum_1d", "--r", "1", "--p", "1", "--t", "0.1",
          "--box", "1,0"], "error: --box: degenerate box side"),
        (["approx", "taylor", "--fn", "holder_half_2d", "--r", "1"], "has no derivative data"),
        (["corpus", "--fn", "nosuch"], "unknown corpus function 'nosuch'"),
    ],
)
def test_parameter_errors_are_config_errors(capsys, args, needle):
    assert needle in _config_error(capsys, args)


# The exponents each function suite takes, of 0.5, 1, 2 and inf
_SUITE_PS = {
    "whitney": {"0.5", "1", "2", "inf"},
    "equivalence": {"0.5", "1", "2", "inf"},
    "marchaud": {"0.5", "1", "2", "inf"},
    "superadditivity": {"0.5", "1", "2"},
    "constant-lemma": {"0.5", "1", "2"},
    "taylor": {"1", "2", "inf"},
}


@pytest.mark.parametrize("p", ["0.5", "1", "2", "inf"])
@pytest.mark.parametrize("suite", sorted(_SUITE_PS))
def test_verify_at_one_exponent_writes_that_exponent_or_no_checks(tmp_path, capsys, suite, p):
    args = ["verify", "--suite", suite, "--fn", "exp_sum_2d", "--r", "1", "--p", p]
    args += ["--grid", "8", "--hsamples", "3"]
    if p not in _SUITE_PS[suite]:
        assert "the selection has no checks" in _config_error(capsys, args)
        return
    code, doc = run_json(tmp_path, args)
    assert code == 0 and doc["records"]
    assert {rec["params"]["p"] for rec in doc["records"]} == {p}


def test_malformed_flag_and_config_values_are_config_errors(tmp_path, capsys):
    err = _config_error(
        capsys, ["compute", "modulus-sup", "--fn", "exp_sum_1d", "--r", "1,a", "--t", "0.1", "--p", "2"]
    )
    assert "bad value '1,a' for r" in err
    assert "bad value 'x' for seed" in _config_error(capsys, ["verify", "--suite", "identities", "--seed", "x"])
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nhsamples = x\n")
    assert "bad value 'x' for hsamples" in _config_error(capsys, ["verify", "--config", str(path)])


def test_config_values_are_read_raw(tmp_path):
    cfg = RunConfig(command="corpus", out=str(tmp_path / "100%.json"))
    assert RunConfig.from_ini(cfg.to_ini()) == cfg
    path = tmp_path / "run.cfg"
    path.write_text(cfg.to_ini())
    assert main(["corpus", "--config", str(path)]) == 0
    assert json.loads((tmp_path / "100%.json").read_text())["config"]["out"] == cfg.out


def test_every_flag_mirrors_a_config_key():
    keys = {f"--{key}" for key in RunConfig().to_strings()} - {"--command", "--op"}
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    for sub in commands.choices.values():
        flags = {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        assert flags - {"--help"} == keys | {"--config"}


# Fuzzing: --fn names a function, and each other flag is absent or one
# text of a kind (valid, negative or zero, empty, inf/nan, malformed).
# Sizes stay small: grid <= 8, at most 5 step samples, and verify only
# on 1-d functions.
_VALID = {
    "r": ["1", "2"],
    "p": ["0.5", "1", "2"],
    "t": ["0.1", "0.25"],
    "grid": ["4", "8"],
    "hsamples": ["2", "3", "5"],
    "splits": ["1", "2"],
    "seed": ["0", "7"],
    "suite": ["whitney", "taylor", "marchaud", "constant-lemma"],
    "tag": ["analytic"],
    "format": ["json", "csv"],
}
_ODD = ["0", "-1", "-0.5,1", "", "inf", "nan", "1,a", "x"]


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(["compute", "approx", "verify", "corpus"]))
    ops = {"compute": COMPUTE_OPS, "approx": APPROX_OPS}.get(command, ())
    head = [command] + ([draw(st.sampled_from(ops))] if ops else [])
    if command == "verify":
        fn = draw(st.sampled_from(["exp_sum_1d", "holder_half_1d"]))
    else:
        fn = draw(st.sampled_from(["linear_1d", "exp_sum_2d", "sin_prod_2d", "nope"]))
    boxes = ["0,1", "0,1000"] if fn.endswith("_1d") else ["0,1,0,2", "0,1000,0,1"]
    flags = {**_VALID, "box": boxes}
    # half the runs have no odd flag, so that they get past the checks
    odd = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2)) if draw(st.booleans()) else ()
    values = {"fn": fn}
    for key, valid in flags.items():
        text = draw(st.sampled_from(_ODD if key in odd else [None] + valid))
        if text is not None:
            values[key] = text
    if command == "verify":
        # no suite means all, whose exact identities take 1.5 s a run
        values.setdefault("suite", draw(st.sampled_from(_VALID["suite"])))
    return head, values


def _exit_code(args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_command_lines())
def test_fuzz_cli_exits_0_1_or_2_without_a_traceback(case):
    head, values = case
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "report")
        flags = [f"--{key}={text}" for key, text in values.items()]
        code = _exit_code(head + flags + ["--out", out])
        assert code in (0, 1, 2)
        if code == 0 and values.get("format") != "csv":
            # a report is strict JSON: no NaN or Infinity token
            json.loads(Path(out).read_text(), parse_constant=_reject_constant)
        # the same values from a config file parse the same way
        path = Path(tmp) / "run.cfg"
        lines = [f"{key} = {text}" for key, text in values.items()]
        path.write_text("\n".join(["[run]", f"out = {out}", *lines]) + "\n")
        assert _exit_code(head + ["--config", str(path)]) == code
