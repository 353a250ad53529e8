"""The package imports nothing outside the standard library, its command
line does not load `dataclasses` or `inspect` or build its parser at
start-up, and `src/` stays under its line ceiling."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import blowuplab

SRC = Path(blowuplab.__file__).resolve().parent.parent


def _fresh(probe: str):
    """What `probe` prints as JSON, run in a fresh interpreter on src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        check=True, timeout=60,
    )
    return json.loads(proc.stdout)


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
    added = _fresh(PROBE)
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
    assert _fresh(STARTUP_PROBE) == []


# The one command-line parser is built on the first `main()` call, so a
# command line that starts a fresh interpreter never pays for it at import.
PARSER_PROBE = """
import argparse, json
built = []
init = argparse.ArgumentParser.__init__

def counted_init(self, *args, **kwargs):
    built.append(type(self).__name__)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted_init
import blowuplab.cli
print(json.dumps(built))
"""


def test_importing_the_cli_builds_no_parser():
    assert _fresh(PARSER_PROBE) == []


# The same verdicts and bytes from less code (aim 2 of ROADMAP.md): the lines
# of src/blowuplab/*.py may not grow past this count.  A change that must grow
# them raises the ceiling and says why in CHANGES.md.
SRC_LINE_CEILING = 3431


def test_src_stays_under_its_line_ceiling():
    modules = sorted((SRC / "blowuplab").glob("*.py"))
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in modules)
    assert modules and lines <= SRC_LINE_CEILING, f"src/ has {lines} lines"
