"""The exact input grammars spell a decimal digit one way.

`\\d` matches every Unicode decimal digit, so a pattern built on it reads
Arabic-Indic or fullwidth digits as numbers.  Every pattern of
`src/blowuplab` writes the digit as `rings.DIGIT`, the ASCII class [0-9];
this walks each module's string literals (f-string parts included) and
finds none that holds `\\d`."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import blowuplab
from blowuplab.rings import DIGIT

PACKAGE = Path(blowuplab.__file__).resolve().parent


def test_no_string_literal_in_the_package_uses_the_unicode_digit_class():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value
    ]
    assert found == []


def test_the_digit_matches_the_ten_ascii_digits_only():
    digit = re.compile(DIGIT)
    assert [c for c in map(chr, range(0x110000)) if digit.fullmatch(c)] == list("0123456789")
