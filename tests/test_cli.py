import json
import math

import numpy as np
import pytest

from mixsmooth.cli import RunConfig, main


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


def test_corpus_unicode_tag_alias(tmp_path):
    code, doc = run_json(tmp_path, ["corpus", "--tag", "Hölder-singular"])
    assert code == 0
    assert len(doc["records"]) >= 3


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


def test_negative_step_bound_is_config_error(capsys):
    args = ["compute", "modulus-sup", "--fn", "linear_1d", "--r", "1", "--p", "1"]
    assert "--t" in _config_error(capsys, args + ["--t", "-0.5"])
    # a difference step may be negative
    assert main(["compute", "difference", "--fn", "linear_1d", "--r", "1", "--t=-0.25"]) == 0
    capsys.readouterr()


def test_zero_splits_is_config_error(capsys):
    args = ["approx", "piecewise", "--fn", "linear_1d", "--p", "1", "--grid", "8"]
    assert "--splits" in _config_error(capsys, args + ["--splits", "0"])
    assert "--splits" in _config_error(capsys, args + ["--splits", "3"])


def test_underdetermined_grid_is_config_error(capsys):
    err = _config_error(
        capsys, ["approx", "best", "--fn", "exp_sum_2d", "--r", "2,2", "--grid", "3", "--p", "1"]
    )
    assert "underdetermined" in err


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
