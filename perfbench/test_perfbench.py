"""Tests of the benchmark itself.

Run from the repository root (they are outside the package's test path):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tasks  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER_METRICS, Tracer, _sup_combos, _total_combos  # noqa: E402


def _subset(workload: str, seed: int) -> list[dict]:
    """The first drawn task of every kind, skipping the slowest kinds."""
    seen, out = set(), []
    for t in tasks.draw_tasks(workload, seed):
        slow = t["kind"] == "marchaud" or (t["kind"] == "best_approx" and t["p"] == 0.5)
        if t["kind"] not in seen and not slow:
            seen.add(t["kind"])
            out.append(t)
    return out


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_task_list_depends_only_on_seed(workload):
    assert tasks.draw_tasks(workload, 3) == tasks.draw_tasks(workload, 3)
    assert tasks.draw_tasks(workload, 3) != tasks.draw_tasks(workload, 4)


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_every_drawn_task_has_a_reference(workload):
    reference = tasks.load_reference()
    pooled = {tasks.task_id(workload, t) for ts in tasks.pool(workload).values() for t in ts}
    for seed in range(20):
        for t in tasks.draw_tasks(workload, seed):
            tid = tasks.task_id(workload, t)
            assert tid in pooled
            assert tid in reference


def test_harrell_davis_quantile():
    assert run._hd_quantile([2.5] * 117, 0.9) == pytest.approx(2.5, rel=1e-9)
    values = [float(i) for i in range(1, 102)]
    assert run._hd_quantile(values, 0.5) == pytest.approx(51.0, rel=1e-6)
    assert 89.0 < run._hd_quantile(values, 0.9) < 93.0


def test_p90_has_ten_samples_beyond_it():
    for workload in tasks.WORKLOADS:
        assert len(tasks.draw_tasks(workload, 0)) >= 110


@pytest.mark.parametrize("workload", tasks.WORKLOADS)
def test_traced_run_repeats_counts_and_keeps_records(workload):
    inputs = tasks.Inputs(workload)
    task_list = _subset(workload, 5)
    inputs.prepare(task_list)
    reference = tasks.load_reference()
    plain = worker.run_pass(inputs, task_list, reference)
    first, tracer_a = worker.traced_pass(inputs, task_list, reference)
    second, tracer_b = worker.traced_pass(inputs, task_list, reference)
    assert plain["failures"] == first["failures"] == []
    # records byte-identical with and without tracing
    assert plain["digest"] == first["digest"] == second["digest"]
    assert tracer_a.counts_only() == tracer_b.counts_only()
    assert tracer_a.absent == []
    names = {name for name, _ in PER_LAYER_METRICS} - {"trace.overhead_frac"}
    assert set(tracer_a.metrics()) == names


def test_install_restores_every_name():
    import mixsmooth
    import mixsmooth.verifier as verifier

    before = (mixsmooth.whitney_report, verifier.sample_on_grid, verifier.get_function)
    tracer = Tracer()
    tracer.install()
    assert verifier.sample_on_grid is not before[1]
    tracer.uninstall()
    assert (mixsmooth.whitney_report, verifier.sample_on_grid, verifier.get_function) == before


def test_computed_step_combos_match_the_sweep(monkeypatch):
    import mixsmooth
    import mixsmooth.differences as differences

    calls = []
    real = differences.difference_field

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(differences, "difference_field", counting)
    box = mixsmooth.Box.unit(2)
    f = mixsmooth.get_function("exp_sum_2d")
    for r, t, m in (((1, 1), (1.0, 1.0), 9), ((2, 0), (0.5, 0.5), 17), ((1, 2), (0.25, 0.0), 8)):
        calls.clear()
        differences.sup_modulus_sweep(f, r, t, box, density=4, h_samples=m, p_values=[1.0])
        assert len(calls) == _sup_combos(r, t, m)
    calls.clear()
    args = {"r": (1, 1), "t": (0.5, 0.5), "h_samples": 5, "p_values": [1.0, float("inf")]}
    differences.total_mean_terms(f, args["r"], args["t"], box, density=4, h_samples=5, p_values=args["p_values"])
    assert len(calls) == _total_combos(args, mean=True)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep-coarse", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_setup_probe_reports_its_setup_time(capsys):
    t0 = time.monotonic()
    assert worker.main(["--workload", "solve-exact", "--seed", "1", "--mode", "setup",
                        "--started", repr(t0)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(out) == {"setup_s"}
    assert 0.0 < out["setup_s"] < time.monotonic() - t0 + 1e-6
