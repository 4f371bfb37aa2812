"""Repeat the benchmark over seeds and summarize each end-to-end metric.

Run from the repository root:

    python3 perfbench/steady.py --workload sweep-fine --seeds 1-10 [--seconds 40] [--out FILE]

For every workload it runs ``run.py --trace 0`` once per seed, one run at
a time, and prints per metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  ``--traced``
adds one ``--trace 1`` run on the first seed.  ``--out`` writes all of
it as JSON; ``baseline.json`` was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tasks  # noqa: E402


def _seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("perfbench-detail "):
            out["detail"] = json.loads(line.split(" ", 1)[1])
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=tasks.WORKLOADS)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    report = {}
    for workload in args.workload or tasks.WORKLOADS:
        runs = []
        for seed in _seeds(args.seeds):
            line = run_once(workload, seed, args.seconds, 0)
            runs.append({"seed": seed, **line})
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items())
            print(f"{workload} seed {seed} correct={line['correct']} failed={line['failed']} {values}",
                  flush=True)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        for name, s in metrics.items():
            print(f"{workload} {name}: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f} ({s['runs']} runs)", flush=True)
        entry = {"end_to_end": metrics, "runs": runs}
        if args.traced:
            entry["traced"] = run_once(workload, _seeds(args.seeds)[0], args.seconds, 1)
        report[workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
