"""Output pinned byte for byte.

The files under ``golden/`` hold the machine output of ``analyze``,
``crosscheck`` and ``spinor`` at seed 1729 with 20 samples (and of
``analyze`` on the dimension-10 ``diagonal_affine9``), the human output of
``analyze`` on so3, heis3 and diagonal_affine9, of ``crosscheck`` on heis3
and of ``spinor`` on so3 at the same seed and sample count, the machine and
human output of ``spinor`` on the ``scaled_so3_bundle`` partial blowup (whose
charts carry the unblown base variables y1, y2) for two scalings f, the
machine and human output of ``catalog``, and the machine and human output of
``analyze`` on the anisotropic sl2, whose lower witness is a real root, and
the machine output of ``spinor`` on two checked-in documents: so(4) in its
standard basis (dimension 6, spinor terms up to degree 6) and a rational
conjugate of so(3), whose denominators exercise the spinor's division by
powers of the common denominator.  Any change to a verdict, a certificate, a
sampled covector or the JSON layout shows up here as a byte difference.

Each machine golden is also parsed and rendered as text, which must equal the
human output of the same command: its golden file where there is one, else a
fresh run.  The human view is thereby read from the machine document alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from blowuplab.cli import main
from blowuplab.model_io import render_text
from conftest import gen

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    (command, algebra)
    for command in ("analyze", "crosscheck", "spinor")
    for algebra in ("so3", "sl2", "heis3", "diagonal_affine2")
] + [
    # dim 10: the only case whose chart keys sort as text ("1", "10", "2",
    # ...), in both verdict.charts and verdict.cross_checks.charts
    ("analyze", "diagonal_affine9"),
]


@pytest.mark.parametrize(("command", "algebra"), CASES)
def test_machine_output_matches_golden(capsys, command, algebra):
    argv = [command, "--catalog", algebra, "--format", "machine"]
    code = main(argv + ["--seed", "1729", "--samples", "20"])
    assert code == 0
    expected = (GOLDEN / f"{command}_{algebra}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# human output: constant k with certified charts (so3), witnesses with
# falsified charts (heis3), ten charts ordered as numbers (diagonal_affine9)
HUMAN_CASES = [
    ("analyze", "so3"),
    ("analyze", "heis3"),
    ("analyze", "diagonal_affine9"),
    ("crosscheck", "heis3"),
    ("spinor", "so3"),
]


@pytest.mark.parametrize(("command", "algebra"), HUMAN_CASES)
def test_human_output_matches_golden(capsys, command, algebra):
    argv = [command, "--catalog", algebra, "--format", "human"]
    assert main(argv + ["--seed", "1729", "--samples", "20"]) == 0
    expected = (GOLDEN / f"{command}_{algebra}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


BUNDLE_SCALINGS = (("y1^2 - 1", "y1sq_minus_1"), ("y1*y2 + 3/2", "y1y2_plus_3half"))
BUNDLE_CASES = [
    (f, fmt, f"spinor_scaled_so3_bundle_{stem}.{ext}")
    for f, stem in BUNDLE_SCALINGS
    for fmt, ext in (("machine", "json"), ("human", "txt"))
]


@pytest.mark.parametrize(("f", "fmt", "golden"), BUNDLE_CASES)
def test_bundle_spinor_output_matches_golden(capsys, f, fmt, golden):
    argv = ["spinor", "--catalog", "scaled_so3_bundle", "--f", f, "--format", fmt]
    assert main(argv + ["--seed", "1729", "--samples", "20"]) == 0
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


CATALOG_CASES = [
    (["catalog", "--format", "machine"], "catalog.json"),
    (["catalog"], "catalog.txt"),
    (["catalog", "--filter", "dim=3", "--format", "machine"], "catalog_dim3.json"),
]


@pytest.mark.parametrize(("argv", "golden"), CATALOG_CASES)
def test_catalog_output_matches_golden(capsys, argv, golden):
    assert main(argv) == 0
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


ANISOTROPIC_SL2 = gen.to_document(gen.anisotropic_sl2())


@pytest.mark.parametrize(
    ("fmt", "golden"), [("machine", "analyze_aniso_sl2.json"), ("human", "analyze_aniso_sl2.txt")]
)
def test_real_root_witness_output_matches_golden(tmp_path, capsys, fmt, golden):
    path = tmp_path / "aniso_sl2.alg"
    path.write_text(ANISOTROPIC_SL2, encoding="utf-8")
    argv = ["analyze", "--input", str(path), "--format", fmt]
    assert main(argv + ["--seed", "1729", "--samples", "20"]) == 0
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


DOCUMENTS = ["so4", "so3_conjugate"]


@pytest.mark.parametrize("stem", DOCUMENTS)
def test_document_spinor_output_matches_golden(capsys, stem):
    argv = ["spinor", "--input", str(GOLDEN / f"{stem}.alg"), "--format", "machine"]
    assert main(argv + ["--seed", "1729", "--samples", "20"]) == 0
    expected = (GOLDEN / f"spinor_{stem}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def _golden_commands(tmp_path) -> dict[str, list[str]]:
    """Every machine golden's file stem, with the command line (less its
    --format) that prints it."""
    aniso = tmp_path / "aniso_sl2.alg"
    aniso.write_text(ANISOTROPIC_SL2, encoding="utf-8")
    commands = {f"{cmd}_{algebra}": [cmd, "--catalog", algebra] for cmd, algebra in CASES}
    for f, stem in BUNDLE_SCALINGS:
        commands[f"spinor_scaled_so3_bundle_{stem}"] = [
            "spinor", "--catalog", "scaled_so3_bundle", "--f", f
        ]
    for stem in DOCUMENTS:
        commands[f"spinor_{stem}"] = ["spinor", "--input", str(GOLDEN / f"{stem}.alg")]
    commands["analyze_aniso_sl2"] = ["analyze", "--input", str(aniso)]
    seeded = ["--seed", "1729", "--samples", "20"]
    commands = {stem: argv + seeded for stem, argv in commands.items()}
    commands["catalog"] = ["catalog"]
    commands["catalog_dim3"] = ["catalog", "--filter", "dim=3"]
    return commands


MACHINE_GOLDENS = sorted(path.stem for path in GOLDEN.glob("*.json"))


def test_every_golden_is_round_tripped(tmp_path):
    commands = _golden_commands(tmp_path)
    assert sorted(commands) == MACHINE_GOLDENS
    assert {path.stem for path in GOLDEN.glob("*.txt")} <= set(commands)


@pytest.mark.parametrize("stem", MACHINE_GOLDENS)
def test_human_output_is_rendered_from_the_machine_golden(tmp_path, capsys, stem):
    """The human text equals the text rendered from the parsed machine bytes,
    so the human view shows nothing that the machine document lacks."""
    report = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    human = GOLDEN / f"{stem}.txt"
    if human.exists():
        expected = human.read_text(encoding="utf-8")
    else:
        assert main(_golden_commands(tmp_path)[stem] + ["--format", "human"]) == 0
        expected = capsys.readouterr().out
    assert render_text(report) == expected
