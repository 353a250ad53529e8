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


def test_traced_run_fills_every_stage_and_counter(monkeypatch, tmp_path, capsys):
    # a stage that stops going through its patched attribute reads 0 here
    tracing = _load_tracing(monkeypatch)
    from blowuplab import serialize_algebra, sl2
    from blowuplab.cli import main

    path = tmp_path / "sl2.alg"
    path.write_text(serialize_algebra(sl2()), encoding="utf-8")

    def run_pass():
        options = ["--input", str(path), "--samples", "5", "--format", "machine"]
        return [main([command, *options]) for command in ("analyze", "spinor")]

    codes, metrics, _ = tracing.traced(run_pass)
    capsys.readouterr()
    assert codes == [0, 0]
    names = list(tracing.SPAN_METRICS) + list(tracing.CALL_COUNTS)
    assert {name: metrics[name] for name in names if not metrics[name]} == {}
