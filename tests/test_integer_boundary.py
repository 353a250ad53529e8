"""Rational data becomes integer data in one place, `linalg`.

Outside it, `.denominator` is read only to evaluate at a rational point
(`realroots._scaled_value`) and to print a rational
(`rings.format_rational`), and no module keeps its own `_primitive`.  The
structure constants are kept as one integer table over one scale, so the
spinor command runs from the bivector to the printed chart forms without a
Fraction.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import blowuplab

PACKAGE = Path(blowuplab.__file__).resolve().parent
ALLOWED_OUTSIDE_LINALG = {("realroots", "_scaled_value"), ("rings", "format_rational")}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def _denominator_reads(node, scope=None):
    """(innermost enclosing function or None, line) of each `.denominator`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr == "denominator":
            yield scope, child.lineno
        yield from _denominator_reads(child, child.name if isinstance(child, FUNCTIONS) else scope)


def test_denominators_are_read_only_at_the_integer_boundary():
    stray = [
        f"{module}.py:{line} in {scope}"
        for module, tree in _modules()
        if module != "linalg"
        for scope, line in _denominator_reads(tree)
        if (module, scope) not in ALLOWED_OUTSIDE_LINALG
    ]
    assert stray == []


def test_no_module_defines_or_imports_a_private_primitive():
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, FUNCTIONS) and node.name == "_primitive"
        or isinstance(node, ast.ImportFrom) and any(a.name == "_primitive" for a in node.names)
    ]
    assert found == []


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_the_spinor_command_builds_no_fraction_from_spinor_to_print(capsys):
    """On a document with rational constants, `spinor` runs in ints on the
    integer bivector, `blowup_pullback` pulls its int coefficients back and
    the chart forms print each coefficient c / scale with one gcd: no
    Fraction is built while any of them runs."""
    from fractions import Fraction

    from blowuplab import poisson_spinor
    from blowuplab.cli import main

    kernels = (poisson_spinor.spinor, poisson_spinor.blowup_pullback, poisson_spinor.ChartForm.render)
    guarded = {fn.__code__: fn.__name__ for fn in kernels}
    counts = dict.fromkeys(guarded.values(), 0)
    built = []

    def hook(frame, event, arg):
        if event != "call":
            return
        if frame.f_code in guarded:
            counts[guarded[frame.f_code]] += 1
        elif frame.f_code is Fraction.__new__.__code__:
            caller = frame.f_back
            while caller is not None and caller.f_code not in guarded:
                caller = caller.f_back
            if caller is not None:
                built.append(guarded[caller.f_code])

    argv = ["spinor", "--input", str(GOLDEN / "so3_conjugate.alg"), "--format", "machine"]
    sys.setprofile(hook)
    try:
        code = main(argv + ["--seed", "1729", "--samples", "20"])
    finally:
        sys.setprofile(None)
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / "spinor_so3_conjugate.json").read_text("utf-8")
    assert all(counts.values()), counts
    assert built == []
