"""Regenerate ``reference.json``: reference values for every pooled task.

Run from the repository root:

    python3 perfbench/make_reference.py

Every task any seed can draw, of every workload, is run once, untraced,
and the values that ``tasks.check_output`` compares are stored under
the task's id.  The whole file is written in one run, so all its values
come from one commit.  Only regenerate at a commit whose outputs are
known to be right: a later run is checked against these values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tasks  # noqa: E402


def main() -> int:
    reference = {}
    for workload in tasks.WORKLOADS:
        inputs = tasks.Inputs(workload)
        for kind, items in tasks.pool(workload).items():
            for task in items:
                tid = tasks.task_id(workload, task)
                out = tasks.run_task(inputs, task, inputs.ms.get_function)
                reference[tid] = tasks.reference_values(kind, out)
                for reason in tasks.check_output(kind, out, reference[tid]):
                    print(f"FAILS {tid}: {reason}", file=sys.stderr)
            print(f"{workload} {kind}: {len(items)} tasks", file=sys.stderr)
    with open(tasks.REFERENCE_PATH, "w") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
