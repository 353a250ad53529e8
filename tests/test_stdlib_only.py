"""The package imports nothing outside the standard library, its command
line does not load `dataclasses` or `inspect` at start-up, and `src/` stays
under its line ceiling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import blowuplab

SRC = Path(blowuplab.__file__).resolve().parent.parent

# Interpreter start-up may load site hooks from outside the standard library,
# so only the modules that importing the package adds are judged.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import blowuplab
for info in pkgutil.iter_modules(blowuplab.__path__):
    importlib.import_module("blowuplab." + info.name)
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env,
        check=True, timeout=60,
    )
    added = json.loads(proc.stdout)
    assert "blowuplab" in added
    outside = [
        name for name in added
        if name != "blowuplab" and name not in sys.stdlib_module_names
    ]
    assert outside == []


# Each command line starts a fresh interpreter, and importing either of these
# (dataclasses pulls in inspect, ast, dis and tokenize) costs every one of them.
STARTUP_PROBE = """
import json, sys
before = set(sys.modules)
import blowuplab.cli
print(json.dumps(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE], capture_output=True, text=True, env=env,
        check=True, timeout=60,
    )
    assert json.loads(proc.stdout) == []


# The same verdicts and bytes from less code (aim 2 of ROADMAP.md): the lines
# of src/blowuplab/*.py may not grow past this count.  A change that must grow
# them raises the ceiling and says why in CHANGES.md.
SRC_LINE_CEILING = 3431


def test_src_stays_under_its_line_ceiling():
    modules = sorted((SRC / "blowuplab").glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in modules)
    assert modules and lines <= SRC_LINE_CEILING, f"src/ has {lines} lines"
