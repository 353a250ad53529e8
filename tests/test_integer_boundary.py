"""Rational data becomes integer data in one place, `linalg`.

Outside it, `.denominator` is read only to evaluate at a rational point
(`realroots._scaled_value`) and to print a rational
(`rings.format_rational`), and no module keeps its own `_primitive`.
"""

from __future__ import annotations

import ast
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
