"""Workload task pools, seeded task lists, task execution and output checks.

A task is a JSON-able dict naming one public mixsmooth function and its
arguments.  Each workload has a closed pool of tasks; a seed draws a
balanced task list from that pool, so the same seed always gives the
same list and every drawn task has a shipped reference value
(``reference.json``, regenerated by ``make_reference.py``).

This module imports mixsmooth only inside functions, so ``run.py`` can
import it without the package being importable.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("sweep-coarse", "sweep-fine", "solve-exact")

# Verifier settings per workload: grid 16 / 9 step samples is the ROADMAP
# baseline; grid 64 / 9 (refined sweep 17) is the acceptance setting, also
# used by solve-exact's Taylor reports.
SETTINGS = {
    "sweep-coarse": {"grid": 16, "h_samples": 9, "seed": 7},
    "sweep-fine": {"grid": 64, "h_samples": 9, "seed": 7},
    "solve-exact": {"grid": 64, "h_samples": 9, "seed": 7},
}
SOLVE_GRID = 64

D2_CORPUS = (
    "bilinear_2d",
    "const_2d",
    "cos_ripple_2d",
    "cubic_2d",
    "exp_sum_2d",
    "holder_half_2d",
    "holder_one_2d",
    "holder_threehalf_2d",
    "runge_bump_2d",
    "sin_prod_2d",
    "spline_prod_2d",
    "spline_taper_2d",
    "trig_rand_2d_a",
    "trig_rand_2d_b",
)
# Cheap-to-evaluate classes: polynomial, exp_sum, Hoelder and spline.
FINE_CORPUS = (
    "bilinear_2d",
    "const_2d",
    "cubic_2d",
    "exp_sum_2d",
    "holder_half_2d",
    "holder_one_2d",
    "holder_threehalf_2d",
    "spline_prod_2d",
    "spline_taper_2d",
)
TAYLOR_CORPUS = (
    "bilinear_2d",
    "const_2d",
    "cos_ripple_2d",
    "cubic_2d",
    "exp_sum_2d",
    "sin_prod_2d",
    "trig_rand_2d_a",
    "trig_rand_2d_b",
)
# The unit square and an anisotropic half-height box: the same grid and
# step counts, so the seed's choice between them barely changes the cost.
BOXES = {"unit": ((0.0, 0.0), (1.0, 1.0)), "half": ((0.0, 0.0), (1.0, 0.5))}
ORDERS = ([1, 1], [2, 2])
P_ALL = (0.5, 1.0, 2.0, "inf")
P_FINITE = (0.5, 1.0, 2.0)
# Step bounds as a share of each box side.  They are fixed because they
# change a report's cost (smaller steps leave larger fields).
EQUIV_T = 0.5
SUPERADD_T = 0.25
TAYLOR_DELTAS = (0.25, 0.125, 0.0625)
MULTISTART_SEEDS = 4

# Fixed per-workload warm-up task, run once untimed during set-up.  It is
# not drawn by the seed, so set-up time does not depend on the seed.
WARMUP = {
    "sweep-coarse": {"kind": "whitney", "fn": "exp_sum_2d", "r": [1, 1], "p": 2.0, "box": "unit"},
    "sweep-fine": {"kind": "whitney", "fn": "exp_sum_2d", "r": [2, 2], "p": 2.0, "box": "unit"},
    "solve-exact": {"kind": "best_approx", "fn": "exp_sum_2d", "r": [2, 2], "p": 1.0},
}

RTOL = 1e-9
ATOL = 1e-12


def _p_val(p) -> float:
    return math.inf if p == "inf" else float(p)


def task_id(workload: str, task: dict) -> str:
    """Stable identifier of a task: workload plus its sorted parameters."""
    return workload + "|" + json.dumps(task, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Workload specs: one slot per task of a list.  A slot field is either a
# fixed value or a Choice the seed draws.  A balanced Choice is drawn so
# that, over the slots of one kind, every value occurs about equally
# often; the cost of a list then hardly depends on the seed.


@dataclass(frozen=True)
class Choice:
    values: tuple
    balanced: bool = True


def _box():
    return Choice(tuple(BOXES))


def _spec(workload: str) -> list[dict]:
    if workload == "sweep-coarse":
        return [
            # order (2, 2) in the direct regimes (IRLS, projection) on both
            # boxes; order (1, 1) once in an iterative regime (multistart or
            # Lawson) and once in a direct one.  This keeps the median task
            # inside a cluster of tasks of like cost.
            *(
                {"kind": "whitney", "fn": fn, "r": [2, 2], "p": p, "box": box}
                for fn in D2_CORPUS
                for p in (1.0, 2.0)
                for box in BOXES
            ),
            *(
                {"kind": "whitney", "fn": fn, "r": [1, 1], "p": Choice(ps), "box": _box()}
                for fn in D2_CORPUS
                for ps in ((0.5, "inf"), (1.0, 2.0))
            ),
            *(
                {
                    "kind": "equivalence",
                    "fn": fn,
                    "r": Choice(ORDERS),
                    "p": Choice(P_ALL),
                    "t": EQUIV_T,
                    "box": _box(),
                }
                for fn in D2_CORPUS
            ),
            *(
                {
                    "kind": "superadditivity",
                    "fn": fn,
                    "r": [1, 1],
                    "p": Choice(P_FINITE),
                    "t": SUPERADD_T,
                    "box": _box(),
                }
                for fn in D2_CORPUS
            ),
            *(
                {"kind": "constant_bound", "fn": fn, "p": p, "box": _box()}
                for fn in D2_CORPUS
                for p in P_FINITE
            ),
            {"kind": "marchaud", "fn": "exp_sum_2d", "p": Choice((0.5, 2.0)), "box": _box()},
        ]
    if workload == "sweep-fine":
        return [
            *(
                {"kind": "whitney", "fn": fn, "r": r, "p": p, "box": box}
                for fn in FINE_CORPUS
                for r in ORDERS
                for p in (1.0, 2.0)
                for box in BOXES
            ),
            *(
                {"kind": "whitney", "fn": fn, "r": r, "p": "inf", "box": _box()}
                for fn in FINE_CORPUS
                for r in ORDERS
            ),
            *(
                {
                    "kind": "equivalence",
                    "fn": fn,
                    "r": Choice(ORDERS),
                    "p": Choice(P_ALL),
                    "t": EQUIV_T,
                    "box": _box(),
                }
                for fn in FINE_CORPUS
            ),
            *(
                {
                    "kind": "superadditivity",
                    "fn": fn,
                    "r": [1, 1],
                    "p": Choice(P_FINITE),
                    "t": SUPERADD_T,
                    "box": _box(),
                }
                for fn in FINE_CORPUS
            ),
            *(
                {"kind": "constant_bound", "fn": fn, "p": Choice(P_FINITE), "box": _box()}
                for fn in FINE_CORPUS
            ),
        ]
    if workload == "solve-exact":
        return [
            *(
                {"kind": "best_approx", "fn": fn, "r": r, "p": p}
                for fn in D2_CORPUS
                for r in ORDERS
                for p in (1.0, 2.0, "inf")
            ),
            # only the nonconvex p < 1 multistart uses the solver seed; its
            # cost depends on the order 10x for some functions, so each
            # function keeps one order (alternating along the corpus) and
            # the seed draws only the solver seed
            *(
                {
                    "kind": "best_approx",
                    "fn": fn,
                    "r": ORDERS[i % 2],
                    "p": 0.5,
                    "seed": Choice(tuple(range(MULTISTART_SEEDS)), balanced=False),
                }
                for i, fn in enumerate(D2_CORPUS)
            ),
            *(
                {"kind": "best_constant", "fn": fn, "p": Choice(P_FINITE)}
                for fn in D2_CORPUS
            ),
            *(
                {"kind": "piecewise", "fn": fn, "p": Choice(P_FINITE), "splits": Choice((2, 4))}
                for fn in D2_CORPUS
            ),
            *(
                {"kind": "taylor", "fn": fn, "r": Choice(ORDERS), "p": Choice((2.0, "inf"))}
                for fn in TAYLOR_CORPUS
            ),
            *(
                {"kind": "unit_decomposition", "r": list(r)}
                for d in (1, 2, 3)
                for r in itertools.product(range(1, 5), repeat=d)
            ),
            *({"kind": "halving", "k": k} for k in range(1, 11)),
            *({"kind": "suite_identities", "seed": Choice(tuple(range(10)))} for _ in range(2)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def pool(workload: str) -> dict[str, list[dict]]:
    """Every task a seed can draw for ``workload``, grouped by kind."""
    out: dict[str, dict[str, dict]] = {}
    for slot in _spec(workload):
        fields = [
            [(k, x) for x in v.values] if isinstance(v, Choice) else [(k, v)]
            for k, v in slot.items()
        ]
        for combo in itertools.product(*fields):
            task = dict(combo)
            out.setdefault(task["kind"], {})[task_id(workload, task)] = task
    return {kind: list(tasks.values()) for kind, tasks in out.items()}


def _balanced(rng: random.Random, values, n: int) -> list:
    """n values cycling through ``values`` in a seeded order, then shuffled."""
    out = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    out = out[:n]
    rng.shuffle(out)
    return out


def draw_tasks(workload: str, seed: int) -> list[dict]:
    """The task list for ``workload`` and ``seed``, in execution order."""
    rng = random.Random(f"{workload}:{int(seed)}")
    spec = _spec(workload)
    # each group of balanced choices: (its values, how many slots draw from it)
    groups: dict[tuple, list] = {}
    for slot in spec:
        for k, v in slot.items():
            if isinstance(v, Choice) and v.balanced:
                groups.setdefault((slot["kind"], k, repr(v.values)), [v.values, 0])[1] += 1
    draws = {key: _balanced(rng, values, n) for key, (values, n) in groups.items()}
    tasks = []
    for slot in spec:
        task = {}
        for k, v in slot.items():
            if not isinstance(v, Choice):
                task[k] = v
            elif v.balanced:
                task[k] = draws[(slot["kind"], k, repr(v.values))].pop()
            else:
                task[k] = rng.choice(v.values)
        tasks.append(task)
    rng.shuffle(tasks)
    return tasks


def count_kinds(tasks) -> dict[str, int]:
    return dict(sorted(Counter(t["kind"] for t in tasks).items()))


# ---------------------------------------------------------------------------
# Execution


class Inputs:
    """Per-process inputs shared by every task of a workload.

    Holds the verifier settings and, for ``solve-exact``, the 64^2 corpus
    samples the solvers run on; they are built once during set-up from
    the untraced corpus functions.
    """

    def __init__(self, workload: str):
        import mixsmooth as ms

        self.ms = ms
        self.workload = workload
        self.settings = ms.VerifierSettings(**SETTINGS[workload])
        self.boxes = {name: ms.Box(*bounds) for name, bounds in BOXES.items()}
        self._samples: dict[str, object] = {}

    def sample(self, name: str):
        if name not in self._samples:
            self._samples[name] = self.ms.sample_on_grid(
                self.ms.get_function(name), self.boxes["unit"], SOLVE_GRID
            )
        return self._samples[name]

    def prepare(self, tasks) -> None:
        for t in tasks:
            if t["kind"] in ("best_approx", "best_constant", "piecewise"):
                self.sample(t["fn"])


def run_task(inputs: Inputs, task: dict, corpus_fn):
    """One call to a public mixsmooth function; returns its raw output.

    ``corpus_fn(name)`` supplies the corpus entry, so a traced run can
    substitute its counting wrapper.  Functions are looked up on the
    package at call time, which is where the tracer installs its spans.
    """
    ms = inputs.ms
    kind = task["kind"]
    s = inputs.settings
    box = inputs.boxes[task.get("box", "unit")]
    # step bounds are a fraction of each box side, as in the verifier's suites
    t = tuple(task.get("t", 0.0) * side for side in box.size)
    if kind == "whitney":
        return ms.whitney_report(corpus_fn(task["fn"]), task["r"], _p_val(task["p"]), box, s)
    if kind == "equivalence":
        return ms.equivalence_report(corpus_fn(task["fn"]), task["r"], t, _p_val(task["p"]), box, s)
    if kind == "superadditivity":
        return ms.superadditivity_report(corpus_fn(task["fn"]), task["r"], t, task["p"], box, 2, s)
    if kind == "constant_bound":
        return ms.constant_bound_report(corpus_fn(task["fn"]), task["p"], box, s)
    if kind == "marchaud":
        return ms.marchaud_report(
            corpus_fn(task["fn"]), (1, 2), (2, 2), 0, (0.125, 0.125), task["p"], box, s
        )
    if kind == "taylor":
        return ms.taylor_report(corpus_fn(task["fn"]), task["r"], _p_val(task["p"]), TAYLOR_DELTAS, s)
    if kind == "suite_identities":
        return ms.suite_identities(
            ms.VerifierSettings(seed=task["seed"]),
            max_dim=1,
            max_order=1,
            halving_orders=1,
            n_random=10,
        )
    if kind == "best_approx":
        return ms.best_approx(
            inputs.sample(task["fn"]), task["r"], _p_val(task["p"]), seed=task.get("seed", 0)
        )
    if kind == "best_constant":
        return ms.best_constant(inputs.sample(task["fn"]), task["p"])
    if kind == "piecewise":
        return ms.piecewise_constant_approx(inputs.sample(task["fn"]), task["splits"], task["p"])
    if kind == "unit_decomposition":
        return ms.unit_decomposition(task["r"])
    if kind == "halving":
        return ms.halving_identity(task["k"])
    raise ValueError(f"unknown task kind {kind!r}")


# ---------------------------------------------------------------------------
# Records and checks

REPORT_KINDS = (
    "whitney",
    "equivalence",
    "superadditivity",
    "constant_bound",
    "marchaud",
    "taylor",
    "suite_identities",
)

# Report sides that are approximation errors.  Today's solvers only give
# upper bounds on the discrete optimum there (p < 1 multistart, Lawson at
# its iteration cap, the best-constant sample scan for p > 1), so a later
# value may be lower but not higher.
_ERROR_SIDES = {
    ("whitney-lower", "right"),
    ("whitney-ratio", "left"),
    ("constant-lemma", "left"),
}


def _reports(output) -> list:
    return [output] if hasattr(output, "to_record") else list(output)


def _exact_poly(items) -> dict[str, str]:
    return {",".join(map(str, k)): str(c) for k, c in sorted(items)}


def to_record(kind: str, output):
    """Canonical JSON-able record of a task's output (hashed for identity)."""
    if kind in REPORT_KINDS:
        return [rep.to_record() for rep in _reports(output)]
    if kind == "best_approx":
        return {
            "error": output.error,
            "converged": output.converged,
            "diagnostics": output.diagnostics,
            "coeffs": output.polynomial.coeffs.tolist(),
        }
    if kind == "best_constant":
        beta, err = output
        return {"beta": beta, "error": err}
    if kind == "piecewise":
        pc, err = output
        return {"betas": pc.betas.tolist(), "error": err}
    if kind == "unit_decomposition":
        return {"a": _exact_poly(output.a.items()), "b": _exact_poly(output.b.items())}
    if kind == "halving":
        return {"witness": _exact_poly(output.items())}
    raise ValueError(f"unknown task kind {kind!r}")


def record_bytes(record) -> bytes:
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def reference_values(kind: str, output) -> dict[str, list]:
    """Values compared against the shipped reference: name -> [mode, value].

    Modes: ``two`` (two-sided within RTOL/ATOL), ``upper`` (may drop, may
    not rise) and ``exact`` (equal).
    """
    out: dict[str, list] = {}
    if kind in REPORT_KINDS:
        for i, rep in enumerate(_reports(output)):
            exact = rep.check.startswith("identity-")
            for side in ("left", "right"):
                mode = "upper" if (rep.check, side) in _ERROR_SIDES else "two"
                out[f"{i}:{rep.check}:{side}"] = [mode, float(getattr(rep, side))]
            if exact:
                out[f"{i}:{rep.check}:passed"] = ["exact", rep.passed]
        return out
    if kind == "best_approx":
        return {"error": ["upper", float(output.error)]}
    if kind in ("best_constant", "piecewise"):
        return {"error": ["upper", float(output[1])]}
    return {"exact": ["exact", to_record(kind, output)]}


def _finite_values(kind: str, output) -> list[float]:
    if kind in REPORT_KINDS:
        vals = []
        for rep in _reports(output):
            vals += [rep.left, rep.right]
            if rep.empirical_constant is not None:
                vals.append(rep.empirical_constant)
        return vals
    if kind == "best_approx":
        return [output.error, *output.polynomial.coeffs.reshape(-1).tolist()]
    if kind == "best_constant":
        return list(output)
    if kind == "piecewise":
        return [output[1], *output[0].betas.reshape(-1).tolist()]
    return []


def check_output(kind: str, output, reference: dict | None) -> list[str]:
    """Reasons the task failed; empty when the output is accepted.

    A task fails when it returns a non-finite value, a hard check with
    ``passed == False`` (a report with an explicit constant, or an exact
    identity), or a value that disagrees with its shipped reference.
    """
    reasons = []
    if any(not math.isfinite(float(v)) for v in _finite_values(kind, output)):
        reasons.append("non-finite value")
    if kind in REPORT_KINDS:
        for rep in _reports(output):
            hard = rep.explicit_constant is not None or rep.check.startswith("identity-")
            if hard and rep.passed is False:
                reasons.append(f"hard check {rep.check} failed")
    if reference is None:
        reasons.append("no reference value for this task")
        return reasons
    got = reference_values(kind, output)
    if set(got) != set(reference):
        reasons.append("output shape differs from the reference")
        return reasons
    for name, (mode, ref) in reference.items():
        val = got[name][1]
        if mode == "exact":
            ok = val == ref
        elif mode == "upper":
            ok = val <= ref + RTOL * abs(ref) + ATOL
        else:
            ok = abs(val - ref) <= RTOL * max(abs(val), abs(ref)) + ATOL
        if not ok:
            reasons.append(f"{name}: {val!r} vs reference {ref!r} ({mode})")
    return reasons


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
