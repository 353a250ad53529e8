"""Fuzzing of the command line: any argv, over any input file, ends in exit
0, 1, 2 or 64 with nothing escaping `main`, and a refusal says why on stderr.

Each argv is a command (the four real ones, a bogus one or an empty string)
followed by options drawn from a fixed vocabulary: the real options, unknown
and prefix-like ones, and values that are empty, zero, negative, not a
number, fractional or 25 digits long; catalog names valid and invalid;
`--input` paths to a valid document, a Jacobi-broken one, a missing file, a
directory and a file that is not UTF-8; and malformed bundle scalings.
`--samples` takes values up to 3 or a 25-digit one, which the samples
budget refuses before any covector is drawn, and `-h`, which exits through
argparse, is left out.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from blowuplab import serialize_algebra, sl2
from blowuplab.cli import main

SETTINGS = settings(derandomize=True, database=None, max_examples=600, deadline=None)

COMMANDS = ["analyze", "spinor", "crosscheck", "catalog", "bogus", ""]
ODD_VALUES = ["", "0", "-1", "x", "2.5", "9" * 25]
CATALOG_NAMES = [
    "so3", "sl2", "heis3", "abelian2", "diagonal_affine2", "scaled_so3_bundle",
    "", "so", "SO3", "abelian0", "abelian99", "diagonal_affine", "nosuch",
]
PATHS = ["<valid>", "<broken>", "<missing>", "<directory>", "<latin1>"]
SCALINGS = ["1", "y1^2+1", "(y1", "y1^", "y3", "1/0", "y1^99999", "", "x1", "y1**2"]

OPTION_VALUES = {
    "--catalog": CATALOG_NAMES,
    "--input": PATHS,
    "--seed": ODD_VALUES + ["7"],
    "--samples": ["", "0", "-1", "x", "2.5", "1", "3", "9" * 25],
    "--format": ODD_VALUES + ["human", "machine"],
    "--chart": ODD_VALUES + ["1", "3"],
    "--f": SCALINGS,
    "--filter": ODD_VALUES + ["dim=3", "dim=", "dim=x", "=3", "size=3"],
}
UNKNOWN_OPTIONS = ["--fo", "--cat", "--sample", "--bogus", "-x", "--"]
# stray tokens; none may become a large --samples value
STRAY = ["", "x", "2.5", "-1", "0"]

pairs = st.sampled_from(sorted(OPTION_VALUES)).flatmap(
    lambda option: st.sampled_from(OPTION_VALUES[option]).map(lambda v: [option, v])
)
singles = st.sampled_from(sorted(OPTION_VALUES) + UNKNOWN_OPTIONS + STRAY).map(lambda t: [t])
# a source most of the time, so that a fair share of the commands run
sources = st.one_of(
    st.sampled_from(CATALOG_NAMES).map(lambda name: ["--catalog", name]),
    st.sampled_from(PATHS).map(lambda path: ["--input", path]),
)
argvs = st.builds(
    lambda command, source, options, junk: [command, *source, *options, *junk],
    st.sampled_from(COMMANDS),
    st.one_of(sources, sources, sources, st.just([])),
    st.lists(pairs, max_size=3).map(lambda groups: [t for group in groups for t in group]),
    st.lists(singles, max_size=2).map(lambda groups: [t for group in groups for t in group])
    | st.just([]),
)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fuzz")
    valid = root / "sl2.alg"
    valid.write_text(serialize_algebra(sl2()), encoding="utf-8")
    broken = root / "broken.alg"
    broken.write_text(
        "schema_version: 1\ndimension: 3\n"
        "bracket: 1 2 3 1\nbracket: 2 3 2 1\nbracket: 1 3 2 -1\n",
        encoding="utf-8",
    )
    latin1 = root / "latin1.alg"
    latin1.write_bytes("schema_version: 1\nname: Lie algèbre\n".encode("latin-1"))
    return {
        "<valid>": str(valid),
        "<broken>": str(broken),
        "<missing>": str(root / "missing.alg"),
        "<directory>": str(root),
        "<latin1>": str(latin1),
    }


@SETTINGS
@given(argv=argvs)
def test_any_argv_exits_0_1_2_or_64(paths, argv):
    argv = [paths.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 64), (argv, err.getvalue())
    if code:
        assert err.getvalue().startswith(
            ("usage error: ", "parse error: ", "invalid algebra: ", "error: ")
        ), (argv, err.getvalue())
