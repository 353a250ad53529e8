"""The console entry: `python -m blowuplab.cli` runs `cli.run`, which exits
with the code `cli.main` returns."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import blowuplab

SRC = Path(blowuplab.__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _console(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("BLOWUPLAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-m", "blowuplab.cli", *argv],
        capture_output=True, env=env, timeout=60,
    )


def test_console_entry_prints_the_catalog_golden():
    proc = _console("catalog", "--format", "machine", "--filter", "dim=3")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (GOLDEN / "catalog_dim3.json").read_bytes()


def test_console_entry_exits_with_the_usage_code():
    proc = _console("analyze", "--catalog", "nope")
    assert proc.returncode == 64
    assert proc.stdout == b""
    assert b"usage error" in proc.stderr
