"""Command-line interface: compute, approx, verify, corpus.

Reports are JSON documents (optionally flattened to CSV) that echo the
resolved configuration, the tool version, and the tolerance policy, so
a report is reproducible from its own header.  Identical configuration
and seed produce byte-identical report files.

Exit codes: 0 success, 1 verification or numeric failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

import numpy as np

from . import __version__
from .corpus import corpus_entries, get_function
from .differences import (
    difference_field,
    mean_modulus_sweep,
    sup_modulus_sweep,
    total_mean_terms,
    total_sup_terms,
)
from .domain import Box, GridFunction, lp_quasinorm, sample_on_grid
from .polyapprox import (
    _check_fit_grid,
    best_approx,
    best_constant,
    piecewise_constant_approx,
    taylor_polynomial,
)
from .verifier import (
    _SUITES,
    SUITE_NAMES,
    VerifierSettings,
    _jsonable,
    _p_str,
    run_suite,
)

SCHEMA_VERSION = 1

COMPUTE_OPS = ("modulus-sup", "modulus-mean", "total-omega", "total-w", "difference")
APPROX_OPS = ("best", "taylor", "constant", "piecewise")


class ConfigError(ValueError):
    """Invalid configuration or flags (exit code 2)."""


# ---------------------------------------------------------------------------
# Configuration


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",")) if text else ()


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",")) if text else ()


def _p_parse(text: str) -> float | None:
    if text == "":
        return None
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _key(default, doc: str):
    """A `RunConfig` field that is also a command-line flag with this help."""
    return field(default=default, metadata={"help": doc})


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; round-trips losslessly through the file format.

    Each field is one config-file key and, apart from ``command`` and
    ``op``, one ``--flag`` of every subcommand.  ``command`` and ``op``
    echo the command line's subcommand and op (``""`` for ``verify`` and
    ``corpus``) in a report's header; a run takes neither from a file.
    """

    command: str = ""
    op: str = ""
    suite: str = _key("all", "verification suite: " + ", ".join(SUITE_NAMES))
    fn: str = _key("", "corpus function name")
    tag: str = _key("", "smoothness tag filter (corpus)")
    r: tuple[int, ...] = _key((), "difference/degree orders, N or N,N,...")
    p: float | None = _key(None, "exponent, a number or 'inf'")
    t: tuple[float, ...] = _key((), "step bounds, F or F,F,...")
    box: tuple[float, ...] = _key((), "box bounds a,b per axis")
    grid: tuple[int, ...] = _key((32,), "grid points per axis, N or N,N,...")
    hsamples: int = _key(9, "step samples per axis")
    splits: int = _key(2, "per-axis subdivision count")
    seed: int = _key(0, "random seed (non-negative)")
    out: str = _key("", "report file path (default stdout)")
    format: str = _key("json", "report format: json or csv")

    def to_strings(self) -> dict[str, str]:
        return {key: codec[1](getattr(self, key)) for key, codec in _CODEC_OF.items()}

    @classmethod
    def from_strings(cls, data: dict[str, str]) -> "RunConfig":
        unknown = set(data) - set(_CODEC_OF)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{key: _decode(key, raw) for key, raw in data.items()})

    def to_ini(self) -> str:
        lines = ["[run]"]
        for key, value in self.to_strings().items():
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_ini(cls, text: str, command: str = "") -> "RunConfig":
        """The ``[run]`` values, overridden by the ``[command]`` section's:
        the caller names the running subcommand, so a ``command`` key in
        the file picks no section."""
        # values are read raw: a '%' in a path is text, not interpolation
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config file: {' '.join(str(exc).splitlines())}") from exc
        data: dict[str, str] = {}
        for section in ("run", command):
            if parser.has_section(section):
                data.update(dict(parser.items(section)))
        return cls.from_strings(data)


# (parse, format) per field type: a flag and its config key share the parse
_CODECS = {
    str: (str, str),
    int: (int, str),
    tuple[int, ...]: (_ints, lambda v: ",".join(str(x) for x in v)),
    tuple[float, ...]: (_floats, lambda v: ",".join(repr(x) for x in v)),
    float | None: (_p_parse, lambda v: "" if v is None else _p_str(v)),
}
_CODEC_OF = {key: _CODECS[kind] for key, kind in get_type_hints(RunConfig).items()}
_FLAG_KEYS = [f for f in fields(RunConfig) if "help" in f.metadata]


def _decode(key: str, text: str):
    try:
        return _CODEC_OF[key][0](text.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value {text!r} for {key}: {exc}") from exc


def _load_config(path: str, command: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return RunConfig.from_ini(fh.read(), command)
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Apply explicitly-given CLI flags on top of the config file values;
    the subcommand and its op come from the command line alone."""
    given = {f.name: getattr(args, f.name) for f in _FLAG_KEYS}
    flags = {k: _decode(k, v) for k, v in given.items() if v is not None}
    return replace(cfg, command=args.command, op=getattr(args, "op", ""), **flags)


# ---------------------------------------------------------------------------
# Shared helpers


def _validate(cfg: RunConfig) -> None:
    """Reject out-of-range values that need no function to check."""
    if cfg.format and cfg.format not in ("json", "csv"):
        raise ConfigError(f"unknown output format {cfg.format!r}")
    if cfg.suite not in SUITE_NAMES:
        raise ConfigError(f"--suite must be one of {SUITE_NAMES}")
    if any(n < 1 for n in cfg.grid):
        raise ConfigError("grid entries must be positive")
    if cfg.hsamples < 2:
        raise ConfigError("--hsamples must be at least 2")
    if cfg.seed < 0:
        raise ConfigError("--seed must be non-negative")
    if cfg.splits < 1:
        raise ConfigError("--splits must be at least 1")
    if any(v < 0 for v in cfg.r):
        raise ConfigError("--r entries must be non-negative")
    if not all(math.isfinite(v) for v in cfg.t):
        raise ConfigError("--t entries must be finite")
    # a difference takes any step; a modulus takes step bounds, and as the
    # sweeps require, a step box 2 t that overflows is no bound
    bounds = cfg.command == "compute" and cfg.op != "difference"
    if bounds and not all(v >= 0 and math.isfinite(2.0 * v) for v in cfg.t):
        raise ConfigError("--t step bounds must be non-negative, with 2 t finite")


def _resolve_box(cfg: RunConfig, dim: int) -> Box:
    if not cfg.box:
        return Box.unit(dim)
    flat = cfg.box
    if len(flat) != 2 * dim:
        raise ConfigError(
            f"--box needs {2 * dim} numbers (a,b per axis) for a {dim}-d function"
        )
    lower = flat[0::2]
    upper = flat[1::2]
    try:
        return Box(lower, upper)
    except ValueError as exc:
        raise ConfigError(f"--box: {exc}") from exc


def _require_fn(cfg: RunConfig):
    if not cfg.fn:
        raise ConfigError("--fn is required (see `mixsmooth corpus` for names)")
    try:
        return get_function(cfg.fn)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def _per_axis(cfg: RunConfig, key: str, dim: int) -> tuple:
    """The ``r``, ``t`` or ``grid`` entries for a ``dim``-d function: one
    value for every axis, or one value per axis."""
    values = getattr(cfg, key)
    if not values:
        raise ConfigError(f"--{key} is required for this operation")
    if len(values) == 1:
        values = values * dim
    if len(values) != dim:
        raise ConfigError(f"--{key} needs 1 or {dim} entries")
    return values


def _orders_from_one(cfg: RunConfig, dim: int, what: str) -> tuple:
    """The ``--r`` entries for a ``dim``-d function, once every one is >= 1."""
    r = _per_axis(cfg, "r", dim)
    if any(v < 1 for v in r):
        raise ConfigError(f"{what} needs every --r entry >= 1")
    return r


def _require_p(cfg: RunConfig) -> float:
    if cfg.p is None:
        raise ConfigError("--p is required for this operation")
    if not cfg.p > 0:
        raise ConfigError("--p must be positive")
    return cfg.p


def _document(cfg: RunConfig, records: list[dict], summary: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "mixsmooth", "version": __version__},
        "config": cfg.to_strings(),
        "records": records,
    }
    if summary is not None:
        doc["summary"] = summary
    return doc


def _flatten(record: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list):
            out[name] = json.dumps(value, sort_keys=True)
        else:
            out[name] = value
    return out


def _render(doc: dict, fmt: str) -> str:
    if fmt == "csv":
        rows = [_flatten(rec) for rec in doc["records"]]
        columns = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        return buf.getvalue()
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(cfg: RunConfig, doc: dict) -> None:
    text = _render(doc, cfg.format or "json")
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_compute(cfg: RunConfig) -> int:
    fn = _require_fn(cfg)
    box = _resolve_box(cfg, fn.dim)
    grid = _per_axis(cfg, "grid", fn.dim)
    total = cfg.op in ("total-omega", "total-w")
    r = _orders_from_one(cfg, fn.dim, "a total modulus") if total else _per_axis(cfg, "r", fn.dim)
    record: dict = {
        "op": cfg.op,
        "function": fn.name,
        "r": list(r),
        "box": [list(box.lower), list(box.upper)],
        "grid": list(grid),
    }
    if cfg.op == "difference":
        t = _per_axis(cfg, "t", fn.dim)
        record["h"] = list(t)
        diff = difference_field(fn, r, t, box, grid)
        if diff is None:
            record["empty_domain"] = True
            record["value"] = None
        else:
            record["empty_domain"] = False
            record["value"] = float(np.abs(diff.values).max())
            record["domain"] = [list(diff.box.lower), list(diff.box.upper)]
            record["field_shape"] = list(diff.spec)
    else:
        p = _require_p(cfg)
        t = _per_axis(cfg, "t", fn.dim)
        mean = cfg.op in ("modulus-mean", "total-w")
        # at p = inf the mean sweeps give the sup modulus, which needs no step box
        if mean and p != math.inf and any(ti <= 0 for ti, ri in zip(t, r) if ri > 0):
            raise ConfigError("the mean modulus needs --t > 0 on every axis with --r > 0")
        record["p"] = _p_str(p)
        record["t"] = list(t)
        record["h_samples"] = cfg.hsamples
        sweep = dict(density=grid, h_samples=cfg.hsamples, p_values=[p])
        if not total:
            modulus = mean_modulus_sweep if mean else sup_modulus_sweep
            record["value"] = modulus(fn, r, t, box, **sweep)[float(p)]
        else:
            terms = (total_mean_terms if mean else total_sup_terms)(fn, r, t, box, **sweep)
            record["terms"] = {
                ",".join(map(str, e)): terms[e][float(p)] for e in sorted(terms)
            }
            record["value"] = float(sum(terms[e][float(p)] for e in terms))
    _emit(cfg, _document(cfg, [_jsonable(record)]))
    return 0


def cmd_approx(cfg: RunConfig) -> int:
    fn = _require_fn(cfg)
    box = _resolve_box(cfg, fn.dim)
    grid = _per_axis(cfg, "grid", fn.dim)
    g = sample_on_grid(fn, box, grid)
    record: dict = {
        "op": cfg.op,
        "function": fn.name,
        "box": [list(box.lower), list(box.upper)],
        "grid": list(grid),
    }
    if cfg.op == "best":
        r = _orders_from_one(cfg, fn.dim, "a best approximation")
        p = _require_p(cfg)
        try:  # polyapprox owns the rule; a grid it rejects is a config error
            _check_fit_grid(grid, r)
        except ValueError as exc:
            raise ConfigError(f"--grid: {exc}") from None
        result = best_approx(g, r, p, seed=cfg.seed)
        record.update(
            {
                "r": list(r),
                "p": _p_str(p),
                "error": result.error,
                "converged": result.converged,
                "diagnostics": result.diagnostics,
                "coefficients": _coeff_list(result.polynomial.coeffs),
            }
        )
    elif cfg.op == "taylor":
        r = _orders_from_one(cfg, fn.dim, "a Taylor polynomial")
        p = math.inf if cfg.p is None else _require_p(cfg)
        if not fn.has_derivatives:
            raise ConfigError(f"corpus entry {fn.name!r} has no derivative data")
        poly = taylor_polynomial(fn.derivative, box.lower, r)
        resid = g.values - poly(g.midpoints())
        record.update(
            {
                "r": list(r),
                "p": _p_str(p),
                "base_point": list(box.lower),
                "coefficients": _coeff_list(poly.coeffs),
                "error": lp_quasinorm(GridFunction(box, resid), p),
            }
        )
    elif cfg.op == "constant":
        p = _require_p(cfg)
        beta, err = best_constant(g, p)
        record.update({"p": _p_str(p), "beta": beta, "error": err})
    else:  # piecewise
        p = _require_p(cfg)
        if any(n % cfg.splits for n in grid):
            raise ConfigError(f"--splits {cfg.splits} must divide every --grid entry")
        pw, err = piecewise_constant_approx(g, cfg.splits, p)
        record.update(
            {
                "p": _p_str(p),
                "splits": cfg.splits,
                "error": err,
                "cell_constants": pw.betas.tolist(),
            }
        )
    _emit(cfg, _document(cfg, [_jsonable(record)]))
    return 0


def _coeff_list(coeffs: np.ndarray) -> list[dict]:
    out = []
    for idx in np.ndindex(coeffs.shape):
        out.append({"exponents": list(idx), "coefficient": float(coeffs[idx])})
    return out


def cmd_verify(cfg: RunConfig) -> int:
    kwargs: dict = {}
    dim = 2
    if cfg.fn:
        fn = _require_fn(cfg)
        dim = fn.dim
        covered = sorted(
            {d for s, row in _SUITES.items() if cfg.suite in (s, "all") for d in row.dims}
        )
        if covered and dim not in covered:
            raise ConfigError(
                f"suite {cfg.suite!r} has no checks for {fn.name}, a function of "
                f"dimension {dim}; it covers dimensions {covered}"
            )
        kwargs["names"] = [fn.name]
    if cfg.r:
        kwargs["orders"] = (_orders_from_one(cfg, dim, "verify"),)
    if cfg.p is not None:
        kwargs["p_values"] = (_require_p(cfg),)
    grid = _per_axis(cfg, "grid", dim)
    if cfg.suite in ("whitney", "all"):  # the one suite that fits polynomials
        try:
            for r in _SUITES["whitney"].orders(dim, kwargs.get("orders")):
                _check_fit_grid(grid, r)
        except ValueError as exc:
            raise ConfigError(f"--grid: {exc}") from None
    try:  # the settings own the least number of step samples
        settings = VerifierSettings(grid=grid, h_samples=cfg.hsamples, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"--hsamples: {exc}") from None
    reports = run_suite(cfg.suite, settings, **kwargs)
    if not reports:
        raise ConfigError(f"the selection has no checks in suite {cfg.suite!r}")
    records = [rep.to_record() for rep in reports]
    hard = [r for r in records if r["passed"] is not None]
    failed = [r for r in records if r["passed"] is False]
    # per check, in order of first record, the max of its float constants, as max() picks it
    largest: dict = {}
    for r in records:
        top, c = largest.setdefault(r["check"], None), r["empirical_constant"]
        if isinstance(c, float) and (top is None or c > top):
            largest[r["check"]] = c
    summary = {
        "suite": cfg.suite,
        "total_checks": len(records),
        "hard_checks": len(hard),
        "hard_passed": sum(1 for r in hard if r["passed"]),
        "failed": len(failed),
        "vacuous": sum(1 for r in records if r["vacuous"]),
        "empirical_constants": largest,
    }
    _emit(cfg, _document(cfg, records, summary))
    return 1 if failed else 0


def cmd_corpus(cfg: RunConfig) -> int:
    entries = corpus_entries(tag=cfg.tag or None)
    if cfg.fn:
        fn = _require_fn(cfg)
        entries = [e for e in entries if e.name == fn.name]
    records = [
        {
            "name": e.name,
            "dim": e.dim,
            "tag": e.tag,
            "has_derivatives": e.has_derivatives,
            "polynomial_space": list(e.poly_space) if e.poly_space else None,
            "description": e.description,
        }
        for e in entries
    ]
    if cfg.out or cfg.format == "csv":
        _emit(cfg, _document(cfg, records))
    else:
        for rec in records:
            deriv = "derivatives" if rec["has_derivatives"] else "no derivatives"
            sys.stdout.write(
                f"{rec['name']:22s} d={rec['dim']}  {rec['tag']:16s} {deriv}  {rec['description']}\n"
            )
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixsmooth",
        description="moduli of smoothness, best polynomial L_p approximation, "
        "and inequality verification on a shipped corpus",
    )
    parser.add_argument("--version", action="version", version=f"mixsmooth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", default=None, help="config file (key = value sections)")
        # flags stay text here; _merge_flags parses them as the config file's values
        for f in _FLAG_KEYS:
            sp.add_argument(f"--{f.name}", default=None, help=f.metadata["help"])

    sp = sub.add_parser("compute", help="moduli and difference fields")
    sp.add_argument("op", choices=list(COMPUTE_OPS))
    add_common(sp)
    sp = sub.add_parser("approx", help="polynomial / constant approximants")
    sp.add_argument("op", choices=list(APPROX_OPS))
    add_common(sp)
    sp = sub.add_parser("verify", help="inequality verification suites")
    add_common(sp)
    sp = sub.add_parser("corpus", help="list the shipped function corpus")
    add_common(sp)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "compute": cmd_compute,
        "approx": cmd_approx,
        "verify": cmd_verify,
        "corpus": cmd_corpus,
    }[args.command]
    try:
        cfg = _load_config(args.config, args.command) if args.config else RunConfig()
        cfg = _merge_flags(cfg, args)
        _validate(cfg)
        return handler(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
