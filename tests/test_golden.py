"""Output pinned byte for byte.

The files under ``golden/`` hold the machine output of ``analyze``,
``crosscheck`` and ``spinor`` at seed 1729 with 20 samples (and of
``analyze`` on the dimension-10 ``diagonal_affine9``), the machine and
human output of ``spinor`` on the ``scaled_so3_bundle`` partial blowup (whose
charts carry the unblown base variables y1, y2) for two scalings f, the
machine and human output of ``catalog``, and the machine and human output of
``analyze`` on the anisotropic sl2, whose lower witness is a real root, and
the machine output of ``spinor`` on two checked-in documents: so(4) in its
standard basis (dimension 6, spinor terms up to degree 6) and a rational
conjugate of so(3), whose denominators exercise the spinor's division by
powers of the common denominator.  Any change to a verdict, a certificate, a
sampled covector or the JSON layout shows up here as a byte difference.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from blowuplab.cli import main

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


BUNDLE_CASES = [
    (f, fmt, f"spinor_scaled_so3_bundle_{stem}.{ext}")
    for f, stem in (("y1^2 - 1", "y1sq_minus_1"), ("y1*y2 + 3/2", "y1y2_plus_3half"))
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


ANISOTROPIC_SL2 = (
    "schema_version: 1\nname: aniso_sl2\ndimension: 3\n"
    "bracket: 1 2 3 -3\nbracket: 2 3 1 1\nbracket: 1 3 2 -1\n"
)


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


@pytest.mark.parametrize("stem", ["so4", "so3_conjugate"])
def test_document_spinor_output_matches_golden(capsys, stem):
    argv = ["spinor", "--input", str(GOLDEN / f"{stem}.alg"), "--format", "machine"]
    assert main(argv + ["--seed", "1729", "--samples", "20"]) == 0
    expected = (GOLDEN / f"spinor_{stem}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
