"""Helpers shared by the test modules."""

import importlib
import pkgutil

import mixsmooth
from mixsmooth import differences


def geometry_memos() -> list:
    """Every ``functools.lru_cache`` on the modules of ``mixsmooth``, each
    once, by module and then by name; the memos are found, not listed, so a
    new one cannot be left out of a test that starts from empty memos."""
    found = {}
    for info in sorted(pkgutil.iter_modules(mixsmooth.__path__), key=lambda m: m.name):
        module = importlib.import_module(f"mixsmooth.{info.name}")
        for name in sorted(vars(module)):
            value = getattr(module, name)
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                found.setdefault(id(value), value)
    return list(found.values())


def refined_sups(f, r, t, box, m, *, density, ps) -> list[dict]:
    """The sup sweeps of ``r`` at ``m`` and at ``(m + 1) // 2`` step samples,
    from one family pass: ``[fine, coarse]``, each ``{p: sup}``."""
    family = [(False, t, m), (False, t, (m + 1) // 2)]
    return [value for value, _ in differences._sweeps(f, r, family, box, density=density, ps=ps)]
