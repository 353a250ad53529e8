"""Package modules share only public names, and the routes stay independent.

No module of `src/blowuplab` imports a `_`-prefixed name from another
package module: what two modules share is public in the module that defines
it.  The geometric route (`blowup_geometry`) and the classifier
(`classify`) read from the spinor route (`poisson_spinor`) only the linear
Poisson input that every route starts from, never a spinor result or its
evaluation kernel."""

from __future__ import annotations

import ast
from pathlib import Path

import blowuplab

PACKAGE = Path(blowuplab.__file__).resolve().parent

# what a route other than the spinor route may import from poisson_spinor
LINEAR_POISSON_INPUT = {"shared_linear_poisson", "hamiltonian_field"}


def _package_imports(path: Path):
    """(imported module, imported name) for every `from ... import` of a
    package module in the source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module or ""
        elif (node.module or "").startswith("blowuplab"):
            module = node.module.removeprefix("blowuplab").lstrip(".")
        else:
            continue
        for alias in node.names:
            yield module, alias.name


def test_no_module_imports_a_private_name_from_another():
    private = [
        (path.name, module, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for module, name in _package_imports(path)
        if name.startswith("_")
    ]
    assert private == []


def test_the_other_routes_read_only_the_linear_poisson_input_from_the_spinor_route():
    for name in ("blowup_geometry.py", "classify.py"):
        imported = {n for module, n in _package_imports(PACKAGE / name) if module == "poisson_spinor"}
        assert imported <= LINEAR_POISSON_INPUT, (name, imported - LINEAR_POISSON_INPUT)
