"""mixsmooth benchmark: one workload, one seed, all metrics on the last line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-coarse --seed 1 --seconds 40 --trace 0

Workloads are ``sweep-coarse``, ``sweep-fine`` and ``solve-exact`` (see
``perfbench/README.md`` for why each exists).  The package is imported
from ``src/`` of this checkout; nothing is installed.

A run does a fixed amount of work, whatever the speed of the code under
test.  Each pass of the seeded task list runs in its own fresh process
(``worker.py``): set-up (import, task list, inputs, one warm-up task),
then every task once, one at a time, with every output checked.  Every
task is bracketed by a calibration, and a task's latency is its
calibration-normalized time, best over the run's untraced passes.
``--trace 0`` makes PLAIN_PASSES untraced passes, with set-up probes
(fresh processes that exit after their warm-up) before, between and
after them, and prints the end-to-end metrics.  ``--trace 1`` makes one
untraced and TRACED_PASSES traced passes and prints the per-layer
metrics.  ``--seconds`` is the time a run is sized to measure; it is
recorded, and it does not change the work.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it describe the machine,
the settings and every failed task.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tasks  # noqa: E402
from tracer import PER_LAYER_METRICS  # noqa: E402

PLAIN_PASSES = 2
TRACED_PASSES = 2
PROBES = 3  # set-up probes before the first pass, between passes and after the last
CAL_REF_S = 5.0e-4  # the scale of normalized task times: one calibration takes this long
REF_SETUP_S = 0.13  # the scale of normalized set-up times: one reference process takes this long
DEADLINE_S = 170.0  # every process of a run is stopped by then


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Tasks run one at a time and their least-squares problems are small:
    # a second BLAS thread gained nothing on the 2-core host but doubled
    # the run-to-run spread of solve-exact's wall time (6 % against 3 %).
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _run(cmd, env, deadline: float) -> tuple[str, float]:
    """Run one fresh process to its end; return its output and how long it took."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(0.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{cmd[1]} did not end before the run's deadline") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RuntimeError(f"{cmd[1]} exited with code {proc.returncode}: {tail[0]}")
    return proc.stdout, time.monotonic() - t0


def _worker(mode: str, base, env, deadline: float) -> dict:
    """One fresh worker process; its set-up time runs from right before it starts."""
    cmd = [sys.executable, str(HERE / "worker.py"), *base, "--mode", mode,
           "--started", repr(time.monotonic())]
    out, _ = _run(cmd, env, deadline)
    return json.loads(out.splitlines()[-1])


def _reference(env, deadline: float) -> float:
    """Time one fresh interpreter that imports numpy and exits.

    Set-up is mostly the same kind of work (starting the interpreter and
    importing modules), and the host runs it at speeds that change by
    1.8x within seconds and differently from the task calibration.
    Set-up times are scaled by reference processes run right before and
    right after them.
    """
    return _run([sys.executable, "-c", "import numpy"], env, deadline)[1]


def _probes(base, env, deadline, refs: list, samples: list) -> None:
    """PROBES set-up probes, each followed by a reference process."""
    for _ in range(PROBES):
        setup = _worker("setup", base, env, deadline)["setup_s"]
        refs.append(_reference(env, deadline))
        samples.append(setup * REF_SETUP_S / (0.5 * (refs[-2] + refs[-1])))


def measure(workload: str, seed: int, trace: int) -> dict:
    """Run the fresh processes of one benchmark run and collect their results.

    Untraced: set-up probes, then PLAIN_PASSES times a pass followed by
    more probes, so that set-up is sampled across the whole run.
    Traced: one untraced pass and TRACED_PASSES traced ones, no probes.
    """
    deadline = time.monotonic() + DEADLINE_S
    env = _env()
    base = ["--workload", workload, "--seed", str(seed)]
    passes, setup_samples = [], []
    if trace:
        for mode in ["plain"] + ["traced"] * TRACED_PASSES:
            passes.append(dict(_worker(mode, base, env, deadline), traced=mode == "traced"))
    else:
        refs = [_reference(env, deadline)]
        _probes(base, env, deadline, refs, setup_samples)
        for _ in range(PLAIN_PASSES):
            passes.append(dict(_worker("plain", base, env, deadline), traced=False))
            refs.append(_reference(env, deadline))
            _probes(base, env, deadline, refs, setup_samples)
    return {"passes": passes, "setup_samples_s": setup_samples}


def _normalized(p) -> list[float]:
    """A pass's task latencies at the calibration's reference speed.

    Other tenants of the host change how fast it runs, by up to 2x, from
    one fraction of a second to the next.  Each latency is scaled by
    CAL_REF_S over the mean of the calibration times taken right before
    and right after the task.
    """
    cal = p["calibrations_s"]
    return [
        latency * CAL_REF_S / (0.5 * (cal[i] + cal[i + 1]))
        for i, latency in enumerate(p["latencies_s"])
    ]


def _hd_quantile(values, q: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, the i-th weighted by the
    Beta((n+1)q, (n+1)(1-q)) probability of ((i-1)/n, i/n].  It estimates
    the same quantile as a single order statistic with a smaller spread,
    which matters here: the tasks around p90 number only about a dozen.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = 0.0
    for i, x in enumerate(xs):
        lo, hi = i / n, (i + 1) / n
        h = (hi - lo) / steps
        mass = 0.0
        for k in range(steps):  # midpoint rule for the Beta mass of the cell
            u = lo + (k + 0.5) * h
            mass += math.exp(log_norm + (a - 1.0) * math.log(u) + (b - 1.0) * math.log1p(-u))
        total += x * mass * h
    return total


def _best_latencies(passes) -> list[float]:
    """Each task's best normalized latency over the given passes, in seconds."""
    return [min(v) for v in zip(*(_normalized(p) for p in passes))]


def summarize(result: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    best_ms = [1000.0 * v for v in _best_latencies(plain)]
    failures = {}
    for p in passes:
        for f in p["failures"]:
            failures.setdefault(f["task"], f)
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    consistent = len({p["digest"] for p in passes}) == 1
    cal_median = statistics.median(c for p in plain for c in p["calibrations_s"])
    first = plain[0]
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": first["machine"],
        "settings": tasks.SETTINGS[workload],
        "tasks_per_pass": first["tasks"],
        "task_counts": first["task_counts"],
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_setup_s": [p["setup_s"] for p in passes],
        # wall_s is in seconds at CAL_REF_S speed; these are the plain
        # passes' task lists timed as they ran, without normalization
        "unnormalized_wall_s": [sum(p["latencies_s"]) for p in plain],
        "latency_samples": len(best_ms),
        "order_statistic_p50_p90_ms": [
            statistics.median(best_ms),
            statistics.quantiles(best_ms, n=10)[-1],
        ],
        "calibration_median_s": cal_median,
        "failed_frac": failed / attempted,
        "records_identical_across_passes": consistent,
        "failed_tasks": list(failures.values()),
    }
    if trace:
        traced = [p for p in passes if p["traced"]]
        counts_repeat = traced[0]["trace"]["counts"] == traced[1]["trace"]["counts"]
        consistent = consistent and counts_repeat
        detail["trace_counts_repeat"] = counts_repeat
        detail["trace_counts"] = traced[0]["trace"]["counts"]
        detail["absent_targets"] = traced[0]["trace"]["absent"]
        overhead = sum(_best_latencies(traced)) / sum(_best_latencies(plain)) - 1.0
        layer = dict(min(traced, key=lambda p: p["wall_s"])["trace"]["metrics"])
        layer["trace.overhead_frac"] = overhead
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_METRICS}
    else:
        detail["setup_samples_s"] = result["setup_samples_s"]
        metrics = {
            "setup_s": {"value": statistics.median(result["setup_samples_s"]), "unit": "s"},
            "wall_s": {"value": sum(best_ms) / 1000.0, "unit": "s"},
            "task_ms.p50": {"value": _hd_quantile(best_ms, 0.5), "unit": "ms"},
            "task_ms.p90": {"value": _hd_quantile(best_ms, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in plain), "unit": "MB"},
        }
    return {
        "detail": detail,
        "line": {
            "correct": failed == 0 and consistent,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "mixsmooth" / "__init__.py").is_file():
        print(f"perfbench: no mixsmooth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not tasks.REFERENCE_PATH.is_file():
        print(f"perfbench: missing {tasks.REFERENCE_PATH}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.trace)
    except (RuntimeError, ValueError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = summarize(result, args.workload, args.seed, args.seconds, args.trace)
    for name, m in out["line"]["metrics"].items():
        print(f"{name:36s} {m['value']:>14.6g} {m['unit']}")
    detail = out["detail"]
    print(f"{'failed_frac':36s} {detail['failed_frac']:>14.6g} ratio")
    for i, v in enumerate(detail.get("unnormalized_wall_s", [])):
        print(f"{f'pass {i} task list, unnormalized':36s} {v:>14.6g} s")
    for f in detail["failed_tasks"]:
        print(f"FAILED {f['task']}: {'; '.join(f['reasons'])}")
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
