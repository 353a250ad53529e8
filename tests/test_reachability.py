"""The package keeps only what a command or the library example runs.

What `blowuplab` supports is defined once: a fixed list of command lines,
covering every command, documents, the bundle fixture and the usage, parse
and Jacobi error paths, together with the `## Library` example of README.md.
Both run under a profile hook, and every function and method defined in
`src/` must be called by one of them.  Two kinds are excepted: `__repr__`,
and the console entry `cli.run`, which `tests/test_console.py` runs in a
subprocess.  The methods a NamedTuple record gets (`_replace`, `_asdict`,
`__new__`, ...) are not excepted but out of view: `collections` defines them,
outside the package.  A method written in `src/`, a ring's `__new__` or a
`__hash__` alike, is judged.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import types
from pathlib import Path

import blowuplab
from blowuplab import serialize_algebra, sl2
from blowuplab.cli import main
from conftest import gen

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(blowuplab.__file__).resolve().parent
EXEMPT = {"cli.run"}

# height-drop cone xi1^2 + xi2^2 = 3 xi3^2 has real points but no rational
# ones, so its witness search reaches the Cartan-slice phase
ANISOTROPIC_SL2 = gen.to_document(gen.anisotropic_sl2())


def _command_lines(tmp_path):
    document = tmp_path / "sl2.alg"
    document.write_text(serialize_algebra(sl2()), encoding="utf-8")
    anisotropic = tmp_path / "aniso_sl2.alg"
    anisotropic.write_text(ANISOTROPIC_SL2, encoding="utf-8")
    malformed = tmp_path / "malformed.alg"
    malformed.write_text("schema_version: 1\ndimension: 3\nbracket: 1 2 3 0.5\n")
    broken = tmp_path / "broken.alg"
    broken.write_text(
        "schema_version: 1\ndimension: 3\n"
        "bracket: 1 2 3 1\nbracket: 2 3 2 1\nbracket: 1 3 2 -1\n"
    )
    bundle = ["spinor", "--catalog", "scaled_so3_bundle"]
    lines = [
        ([command, "--catalog", name, "--samples", "5", "--format", fmt], 0)
        for command in ("analyze", "spinor", "crosscheck")
        for name in ("so3", "sl2", "heis3", "abelian2", "diagonal_affine2")
        for fmt in ("human", "machine")
    ]
    return lines + [
        (["analyze", "--input", str(document), "--samples", "5", "--format", "machine"], 0),
        (["analyze", "--input", str(anisotropic), "--samples", "5", "--format", "machine"], 0),
        ([*bundle, "--f", "y1", "--format", "human"], 0),
        ([*bundle, "--f", "y1", "--format", "machine"], 0),
        # a sum, a product, a power and a unary minus, for the degree pass
        ([*bundle, "--f", "1 - (y1-y2)^2*y1 + -y2", "--format", "machine"], 0),
        (["catalog"], 0),
        (["catalog", "--format", "machine", "--filter", "dim=3"], 0),
        (["analyze", "--catalog", "so3", "--f", "1"], 64),
        (["analyze", "--input", str(malformed)], 1),
        (["analyze", "--input", str(broken)], 2),
    ]


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _functions(cls_or_module):
    """(name, function) for each function or method defined directly in it."""
    for name, member in vars(cls_or_module).items():
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if isinstance(member, property):
            member = member.fget
        if isinstance(member, types.FunctionType):
            yield name, member


def _defined_in_src():
    """Qualified name -> code object of every function and method whose
    source is a module of the package."""
    defined = {}
    for info in pkgutil.iter_modules(blowuplab.__path__):
        module = importlib.import_module(f"blowuplab.{info.name}")
        owners = [(info.name, module)] + [
            (f"{info.name}.{name}", obj)
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for prefix, owner in owners:
            for name, fn in _functions(owner):
                if Path(fn.__code__.co_filename).resolve().parent == PACKAGE:
                    defined[f"{prefix}.{name}"] = fn.__code__
    return defined


def test_every_function_is_run_by_a_command_or_the_library_example(tmp_path, capsys):
    command_lines = _command_lines(tmp_path)
    example = compile(_library_example(), str(README), "exec")
    called = set()

    def profiler(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profiler)
    try:
        for argv, _ in command_lines:
            codes.append(main(argv))
        exec(example, {"__name__": "readme_example"})
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in command_lines]

    defined = _defined_in_src()
    # the enumeration sees module functions, methods and properties alike
    seen = {"cli.main", "rings.Polynomial.valuation", "poisson_spinor.ChartForm.ring"}
    assert seen <= set(defined)
    unreached = sorted(
        name
        for name, code in defined.items()
        if code not in called and name not in EXEMPT and not name.endswith(".__repr__")
    )
    assert unreached == []
