"""Per-layer spans and work counters, recorded from outside the package.

The layers are mixsmooth's modules.  ``Tracer.install`` replaces, in
every *other* mixsmooth module namespace (and on the package itself,
through which the benchmark calls its tasks), each public function a
module calls in another with a wrapper that records a span; calls inside
a module stay unwrapped.  The corpus layer is traced by wrapping the
corpus callable itself (``Tracer.corpus``).  Nothing under ``src/``
changes, and ``uninstall`` restores every replaced name.

Spans are aggregated as they close: a span's self time is its duration
minus the time of the child spans it covers.  Targets are resolved by
name; one that no longer exists is listed in ``absent``.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import itertools
import math
import sys
import time
from collections import defaultdict

import numpy as np

TARGETS = {
    "domain": ("sample_on_grid", "grid_points", "lp_quasinorm", "shrink_domain"),
    "differences": (
        "difference_field",
        "mixed_difference",
        "sup_modulus_sweep",
        "mean_modulus_sweep",
        "total_sup_terms",
        "total_mean_terms",
        "modulus_sup",
        "modulus_mean",
        "total_modulus_sup",
        "total_modulus_mean",
        "lower_whitney_constant",
    ),
    "polyapprox": (
        "best_approx",
        "best_constant",
        "piecewise_constant_approx",
        "taylor_polynomial",
        "taylor_remainder_bound",
    ),
    "identities": (
        "unit_decomposition",
        "halving_identity",
        "reproduction_residual",
        "reproduction_identity_gap",
        "annihilation_residual",
    ),
    "verifier": (
        "whitney_report",
        "equivalence_report",
        "superadditivity_report",
        "marchaud_report",
        "constant_bound_report",
        "taylor_report",
        "suite_identities",
    ),
}
SOLVER_REGIMES = {
    "projection": "projection",
    "irls": "irls",
    "lawson": "lawson",
    "smoothed-multistart": "multistart",
}
PER_LAYER_METRICS = (
    ("corpus.calls", "count"),
    ("corpus.points", "count"),
    ("corpus.points_per_call", "count"),
    ("corpus.self_s", "s"),
    ("corpus.repeat_call_frac", "ratio"),
    ("differences.calls", "count"),
    ("differences.step_combos", "count"),
    ("differences.self_s", "s"),
    ("domain.calls", "count"),
    ("domain.self_s", "s"),
    *(
        (f"polyapprox.{regime}.{what}", unit)
        for regime in ("projection", "irls", "lawson", "multistart")
        for what, unit in (("calls", "count"), ("self_s", "s"), ("iterations", "count"))
    ),
    ("polyapprox.unconverged", "count"),
    ("polyapprox.best_constant.self_s", "s"),
    ("polyapprox.taylor.self_s", "s"),
    ("identities.calls", "count"),
    ("identities.self_s", "s"),
    ("verifier.reports", "count"),
    ("verifier.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _sup_combos(r, t, m) -> int:
    """Step combinations of one sup sweep, as ``_sup_axis_nodes`` builds them."""
    n = 1
    for ri, ti in zip(r, t):
        if int(ri) > 0:
            nodes = np.linspace(-float(ti), float(ti), int(m))
            n *= int(np.count_nonzero(nodes != 0.0))
    return n


def _mean_combos(r, m) -> int:
    return int(m) ** sum(1 for ri in r if int(ri) > 0)


def _subsets(dim):
    for k in range(1, dim + 1):
        yield from itertools.combinations(range(dim), k)


def _restrict(r, e):
    return tuple(int(v) if i in e else 0 for i, v in enumerate(r))


def _total_combos(a, *, mean: bool) -> int:
    r, t, m = a["r"], a["t"], a["h_samples"]
    ps = [float(p) for p in a["p_values"]] if "p_values" in a else [float(a["p"])]
    n = 0
    for e in _subsets(len(r)):
        re = _restrict(r, e)
        if mean and any(p != math.inf for p in ps):
            n += _mean_combos(re, m)
        if not mean or math.inf in ps:
            n += _sup_combos(re, t, m)
    return n


def _step_combos(name: str, a: dict) -> int:
    """Step combinations swept by one differences call, from its arguments."""
    if name in ("difference_field", "mixed_difference"):
        return 1
    if name == "sup_modulus_sweep":
        return _sup_combos(a["r"], a["t"], a["h_samples"])
    if name == "mean_modulus_sweep":
        return _mean_combos(a["r"], a["h_samples"])
    if name in ("modulus_sup", "modulus_mean"):
        req = a["req"]
        if name == "modulus_sup" or req.p == math.inf:
            return _sup_combos(req.r, req.t, req.h_samples)
        return _mean_combos(req.r, req.h_samples)
    if name in ("total_sup_terms", "total_modulus_sup"):
        return _total_combos(a, mean=False)
    if name in ("total_mean_terms", "total_modulus_mean"):
        return _total_combos(a, mean=True)
    return 0


class Tracer:
    """Spans and counters for one traced pass over a task list."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])  # key -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._seen: set[bytes] = set()
        self._patched: list[tuple[object, str, object]] = []
        self._corpus: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def _wrap(self, orig, layer: str, name: str):
        stack, stats, counts = self._stack, self.stats, self.counts
        clock = time.perf_counter
        sig = inspect.signature(orig)

        def close(key, t0):
            d = clock() - t0
            child = stack.pop()
            if stack:
                stack[-1] += d
            st = stats[key]
            st[0] += 1
            st[1] += d - child

        if layer == "polyapprox" and name == "best_approx":

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    out = orig(*args, **kwargs)
                except BaseException:
                    close("polyapprox.raised", t0)
                    raise
                regime = SOLVER_REGIMES.get(out.diagnostics.get("method"), "other")
                close(f"polyapprox.{regime}", t0)
                counts[f"polyapprox.{regime}.iterations"] += int(out.diagnostics.get("iterations", 0))
                if not out.converged:
                    counts["polyapprox.unconverged"] += 1
                return out

            return wrapper

        if layer == "polyapprox":
            key = "polyapprox.taylor" if name.startswith("taylor") else "polyapprox.best_constant"
        else:
            key = layer

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                close(key, t0)
            if layer == "differences":
                bound = sig.bind(*args, **kwargs).arguments
                counts["differences.step_combos"] += _step_combos(name, bound)
            elif layer == "verifier":
                counts["verifier.reports"] += 1 if hasattr(out, "to_record") else len(out)
            return out

        return wrapper

    def begin_task(self) -> None:
        """Start a task: repeated corpus inputs are counted within one task."""
        self._seen = set()

    def corpus(self, name: str):
        """The corpus entry ``name`` with its callable counted and timed."""
        if name in self._corpus:
            return self._corpus[name]
        import mixsmooth.corpus as corpus

        entry = corpus.get_function(name)
        f = entry.f
        stack, stats, counts = self._stack, self.stats, self.counts
        clock = time.perf_counter

        def counted(x):
            h0 = clock()
            x = np.asarray(x)
            digest = hashlib.blake2b(
                repr(x.shape).encode() + np.ascontiguousarray(x).tobytes(), digest_size=16
            ).digest()
            counts["corpus.calls"] += 1
            counts["corpus.points"] += x.size // x.shape[-1] if x.ndim else 1
            if digest in self._seen:
                counts["corpus.repeat_calls"] += 1
            else:
                self._seen.add(digest)
            hashing = clock() - h0
            stats["trace.hash"][1] += hashing
            if stack:
                stack[-1] += hashing  # hashing is tracer work, not the caller's
            stack.append(0.0)
            t0 = clock()
            try:
                return f(x)
            finally:
                d = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += d
                st = stats["corpus"]
                st[0] += 1
                st[1] += d - child

        traced = dataclasses.replace(entry, f=counted)
        self._corpus[name] = traced
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import mixsmooth

        modules = [mixsmooth] + [
            m
            for n, m in sorted(sys.modules.items())
            if n.startswith("mixsmooth.") and m is not None
        ]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"mixsmooth.{layer}")
            for name in names:
                orig = getattr(home, name, None) if home is not None else None
                if orig is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(orig, layer, name)
                for m in modules:
                    if m is not home and m.__dict__.get(name) is orig:
                        self._patched.append((m, name, orig))
                        setattr(m, name, wrapper)
        home = sys.modules.get("mixsmooth.corpus")
        orig = getattr(home, "get_function", None)
        if orig is None:
            self.absent.append("corpus.get_function")
            return
        for m in modules:
            if m is not home and m.__dict__.get("get_function") is orig:
                self._patched.append((m, "get_function", orig))
                setattr(m, "get_function", self.corpus)

    def uninstall(self) -> None:
        for m, name, orig in reversed(self._patched):
            setattr(m, name, orig)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric but ``trace.overhead_frac``, which needs
        an untraced pass to compare with."""
        st, c = self.stats, self.counts

        def layer_calls(prefix):
            return sum(v[0] for k, v in st.items() if k == prefix or k.startswith(prefix + "."))

        def layer_self(prefix):
            return sum(v[1] for k, v in st.items() if k == prefix or k.startswith(prefix + "."))

        calls = c["corpus.calls"]
        out = {
            "corpus.calls": calls,
            "corpus.points": c["corpus.points"],
            "corpus.points_per_call": c["corpus.points"] / calls if calls else 0.0,
            "corpus.self_s": layer_self("corpus"),
            "corpus.repeat_call_frac": c["corpus.repeat_calls"] / calls if calls else 0.0,
            "differences.calls": layer_calls("differences"),
            "differences.step_combos": c["differences.step_combos"],
            "differences.self_s": layer_self("differences"),
            "domain.calls": layer_calls("domain"),
            "domain.self_s": layer_self("domain"),
        }
        for regime in ("projection", "irls", "lawson", "multistart"):
            key = f"polyapprox.{regime}"
            out[f"{key}.calls"] = st[key][0] if key in st else 0
            out[f"{key}.self_s"] = st[key][1] if key in st else 0.0
            out[f"{key}.iterations"] = c[f"{key}.iterations"]
        out["polyapprox.unconverged"] = c["polyapprox.unconverged"]
        out["polyapprox.best_constant.self_s"] = layer_self("polyapprox.best_constant")
        out["polyapprox.taylor.self_s"] = layer_self("polyapprox.taylor")
        out["identities.calls"] = layer_calls("identities")
        out["identities.self_s"] = layer_self("identities")
        out["verifier.reports"] = c["verifier.reports"]
        out["verifier.self_s"] = layer_self("verifier")
        return out

    def counts_only(self) -> dict[str, int]:
        """The deterministic part of the trace: counts, no times."""
        out = {k: v for k, v in sorted(self.counts.items())}
        out.update({f"{k}.calls": v[0] for k, v in sorted(self.stats.items()) if k != "trace.hash"})
        return out
