"""The traced benchmark (bench/tracing.py) wraps and counts program
functions by module and attribute name; every such name must still resolve,
or the traced run breaks.  The file is loaded read-only: nothing is written
next to it."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    names = list(tracing.SPANS) + list(tracing.CALL_COUNTS.values())
    for mod_name, dotted in names:
        obj = importlib.import_module(mod_name)
        for part in dotted.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod_name, dotted)
    for name in tracing.SELF_TIME_MODULES:
        if name != "fractions":
            importlib.import_module(f"blowuplab.{name}")
