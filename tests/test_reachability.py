"""The package keeps only what a command runs.

A fixed list of command lines, covering every command, a document, the
bundle fixture and the usage, parse and Jacobi error paths, runs through
`cli.main` under a profile hook.  Every plain function that `blowuplab`
exports must be called by one of them, or be on the README's library list.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import blowuplab
from blowuplab import serialize_algebra, sl2
from blowuplab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY_ONLY = (
    "height_report",
    "element_type",
    "cartan_class",
    "coadjoint_orbit_dim",
    "radial_in_orbit",
    "change_basis",
    "serialize_algebra",
)


def _command_lines(tmp_path):
    document = tmp_path / "sl2.alg"
    document.write_text(serialize_algebra(sl2()), encoding="utf-8")
    malformed = tmp_path / "malformed.alg"
    malformed.write_text("schema_version: 1\ndimension: 3\nbracket: 1 2 3 0.5\n")
    broken = tmp_path / "broken.alg"
    broken.write_text(
        "schema_version: 1\ndimension: 3\n"
        "bracket: 1 2 3 1\nbracket: 2 3 2 1\nbracket: 1 3 2 -1\n"
    )
    lines = [
        ([command, "--catalog", name, "--samples", "5", "--format", fmt], 0)
        for command in ("analyze", "spinor", "crosscheck")
        for name in ("so3", "sl2", "heis3", "abelian2", "diagonal_affine2")
        for fmt in ("human", "machine")
    ]
    return lines + [
        (["analyze", "--input", str(document), "--samples", "5", "--format", "machine"], 0),
        (["spinor", "--catalog", "scaled_so3_bundle", "--f", "y1", "--format", "human"], 0),
        (["spinor", "--catalog", "scaled_so3_bundle", "--f", "y1", "--format", "machine"], 0),
        (["catalog"], 0),
        (["catalog", "--format", "machine", "--filter", "dim=3"], 0),
        (["analyze", "--catalog", "so3", "--f", "1"], 64),
        (["analyze", "--input", str(malformed)], 1),
        (["analyze", "--input", str(broken)], 2),
    ]


def test_every_exported_function_is_run_by_a_command_or_documented(tmp_path, capsys):
    command_lines = _command_lines(tmp_path)
    called = set()

    def profiler(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profiler)
    try:
        for argv, _ in command_lines:
            codes.append(main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in command_lines]

    unreached = sorted(
        name
        for name, obj in vars(blowuplab).items()
        if isinstance(obj, types.FunctionType)
        and obj.__code__ not in called
        and name not in LIBRARY_ONLY
    )
    assert unreached == []
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    assert [name for name in LIBRARY_ONLY if name not in library] == []
