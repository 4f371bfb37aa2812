"""One fresh benchmark process: set up, run at most one pass, print one JSON line.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Set-up is
``import mixsmooth`` (which builds the corpus), drawing the task list,
building its inputs and one untimed warm-up task.  Its time runs from
``--started``, the parent's monotonic clock right before it started this
process, so it includes starting the interpreter.

``--mode setup`` stops there.  ``--mode plain`` then runs the task list
once, one task at a time, and adds the pass's wall time, task latencies,
calibrations, failures, record digest, peak memory and the machine
block; ``--mode traced`` does the same under the tracer and adds the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tasks  # noqa: E402
from tracer import Tracer  # noqa: E402

import numpy as np  # noqa: E402


_CAL_X = np.linspace(0.0, 1.0, 256).reshape(16, 16)
_CAL_A = np.vander(np.linspace(-1.0, 1.0, 64), 4)
_CAL_B = np.cos(np.linspace(0.0, 3.0, 64))


def calibration() -> float:
    """A fixed piece of work like the tasks' own: small numpy operations in
    a Python loop and one small least-squares solve.  Its time, taken
    before and after every task, tracks how fast the shared host runs
    right then."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40):
        y = np.abs(np.sin(_CAL_X * (1.0 + i)) - 0.5)
        acc += float((y**1.5).sum())
    acc += float(np.linalg.lstsq(_CAL_A, _CAL_B, rcond=None)[0].sum())
    return time.perf_counter() - t0


def run_pass(inputs, task_list, reference, tracer: Tracer | None = None) -> dict:
    """Run every task once; time each call, check and digest its output."""
    workload = inputs.workload
    corpus_fn = tracer.corpus if tracer else inputs.ms.get_function
    latencies, calibrations, failures = [], [], []
    digest = hashlib.sha256()
    clock = time.perf_counter
    start = clock()
    for task in task_list:
        tid = tasks.task_id(workload, task)
        if tracer:
            tracer.begin_task()
        calibrations.append(calibration())
        t0 = clock()
        try:
            out = tasks.run_task(inputs, task, corpus_fn)
        except Exception as exc:  # a raising task is a failed task, not a crash
            latencies.append(clock() - t0)
            reason = f"raised {type(exc).__name__}: {exc}"
            digest.update(reason.encode())
            failures.append({"task": tid, "reasons": [reason]})
            continue
        latencies.append(clock() - t0)
        digest.update(tasks.record_bytes(tasks.to_record(task["kind"], out)))
        reasons = tasks.check_output(task["kind"], out, reference.get(tid))
        if reasons:
            failures.append({"task": tid, "reasons": reasons})
    calibrations.append(calibration())
    return {
        "wall_s": clock() - start,
        "latencies_s": latencies,
        "calibrations_s": calibrations,
        "failures": failures,
        "digest": digest.hexdigest(),
    }


def traced_pass(inputs, task_list, reference) -> tuple[dict, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        return run_pass(inputs, task_list, reference, tracer), tracer
    finally:
        tracer.uninstall()


def _openblas_threads() -> int | None:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup(workload: str, seed: int):
    """Import, draw the task list, build inputs, run the warm-up task."""
    inputs = tasks.Inputs(workload)
    task_list = tasks.draw_tasks(workload, seed)
    inputs.prepare(task_list)
    tasks.run_task(inputs, tasks.WARMUP[workload], inputs.ms.get_function)
    return inputs, task_list


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark process")
    ap.add_argument("--workload", required=True, choices=tasks.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent right before it started this process")
    args = ap.parse_args(argv)

    inputs, task_list = setup(args.workload, args.seed)
    out = {"setup_s": time.monotonic() - args.started}
    if args.mode != "setup":
        reference = tasks.load_reference()
        if args.mode == "traced":
            result, tracer = traced_pass(inputs, task_list, reference)
            result["trace"] = {
                "metrics": tracer.metrics(),
                "counts": tracer.counts_only(),
                "absent": tracer.absent,
            }
        else:
            result = run_pass(inputs, task_list, reference)
        out.update(
            result,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            machine=machine(),
            task_counts=tasks.count_kinds(task_list),
            tasks=len(task_list),
        )
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
