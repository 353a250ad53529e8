"""Fuzzing of the two exact input grammars.

The document parser: any text either parses to a LieAlgebra or is
rejected with a ParseError, never another exception, except that a declared
dimension over the work budget MAX_DIM is refused with a DomainError (a
usage error at the command line).  Two sources of input: arbitrary text, and
documents shaped like the grammar whose literals are drawn from valid,
malformed, zero-denominator and over-long (beyond the 4,300 digits that
int() accepts) spellings.  The parser also matches, on the same texts and
on the bench documents, the parser it replaced (`reference_parse_document`),
which built a record first: the same algebra or the same error.

The polynomial parser of `--f`: an expression in y1, y2 means what sympy
reads in the same text with `^` as `**`, signs included, or it is a
ParseError exactly when a power or product as written exceeds
MAX_POWER_DEGREE.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from blowuplab import BlowupLabError, DomainError, LieAlgebra, ParseError, PolyRing
from blowuplab import parse_algebra, parse_document, serialize_algebra, so3
from blowuplab.model_io import MAX_DIM
from blowuplab.rings import MAX_POWER_DEGREE, Polynomial, parse_polynomial
from conftest import gen
from reference import reference_parse_document

SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)


def _parses_or_rejects(text: str) -> None:
    try:
        doc = parse_document(text)
    except ParseError:
        event("ParseError")
        return
    except DomainError as exc:
        assert f"exceeds the limit of {MAX_DIM}" in str(exc)
        event("over the dimension budget")
        return
    event("parsed")
    assert isinstance(doc, LieAlgebra)


@SETTINGS
@given(text=st.text())
def test_arbitrary_text_parses_or_raises_parse_error(text):
    _parses_or_rejects(text)


digits = st.text(alphabet="0123456789", min_size=1, max_size=4)
long_digits = st.integers(4301, 4400).map(lambda n: "9" * n)
signs = st.sampled_from(["", "-", "+"])
integers = st.one_of(
    st.integers(-3, 6).map(str),
    st.builds(lambda s, d: s + d, signs, digits),
    long_digits,
    st.sampled_from(["", "x", "1.5", "1e3", "٣", "1/2", "--1", "0x10"]),
)
rationals = st.one_of(
    integers,
    st.builds(lambda p, q: f"{p}/{q}", integers, digits),
    st.builds(lambda p: f"{p}/0", integers),
    st.builds(lambda p: f"1/{p}", long_digits),
    st.sampled_from(["0.5", "1/", "/2", "1//2", "1/-2", "nan", "inf"]),
)
lines = st.one_of(
    st.builds("schema_version: {}".format, integers),
    st.builds("dimension: {}".format, integers),
    st.builds(
        lambda i, j, k, v: f"bracket: {i} {j} {k} {v}", integers, integers, integers, rationals
    ),
    st.builds("bracket: {}".format, st.lists(rationals, max_size=6).map(" ".join)),
    st.builds("name: {}".format, st.text(st.characters(blacklist_categories=["Cc", "Cs"]))),
    st.sampled_from(
        ["expected_verdict: lifts_as_poisson", "expected_height: 0", "note: x", "# comment", ""]
    ),
    st.builds("{}: {}".format, st.sampled_from(["colour", "Dimension", ""]), integers),
    st.text(max_size=12),
)


# well-formed bracket lines of a dimension-3 document, so that a fair share
# of the documents parse and the later checks (ranges, duplicates) run
valid_brackets = st.builds(
    lambda pair, k, p, q: f"bracket: {pair[0]} {pair[1]} {k} {p}/{q}",
    st.sampled_from([(1, 2), (1, 3), (2, 3)]), st.integers(1, 3),
    st.integers(-5, 5), st.integers(1, 4),
)
heads = st.one_of(
    st.just(["schema_version: 1", "dimension: 3"]),
    st.lists(st.sampled_from(["schema_version: 1", "dimension: 3"]), max_size=2),
)


@st.composite
def documents(draw):
    head = draw(heads)
    body = draw(st.lists(valid_brackets, max_size=4)) + draw(st.lists(lines, max_size=3))
    return "\n".join(head + draw(st.permutations(body))) + "\n"


@SETTINGS
@given(text=documents())
def test_grammar_shaped_documents_parse_or_raise_parse_error(text):
    _parses_or_rejects(text)


# -- the parser against the record-building parser it replaced ---------------------------

# The bench algebras: their documents and seeded conjugates parse, so with a
# line or two inserted a fair share of the texts reach the range checks after
# the loop and the Jacobi check.  Each conjugate is built once.
BENCH_ALGEBRAS = (
    gen.so(3), gen.sl(2), gen.heis(3), gen.abelian(6), gen.diagonal_affine(5), gen.heis(5),
    gen.filiform(5), gen.sl(3), gen.so(4), gen.gl(3), gen.so(5), gen.anisotropic_sl2(),
)


@functools.lru_cache(maxsize=None)
def _bench_document(index: int, seed: int) -> str:
    alg = BENCH_ALGEBRAS[index]
    return gen.to_document(gen.seeded_conjugate(alg, random.Random(seed)) if seed else alg)


@st.composite
def bench_documents(draw):
    """A bench document, with drawn lines inserted and its lines shuffled or not."""
    index = draw(st.integers(0, len(BENCH_ALGEBRAS) - 1))
    body = _bench_document(index, draw(st.integers(0, 3))).splitlines()
    for extra in draw(st.lists(valid_brackets, max_size=1)) + draw(st.lists(lines, max_size=1)):
        body.insert(draw(st.integers(0, len(body))), extra)
    if draw(st.booleans()):
        body = draw(st.permutations(body))
    return "\n".join(body) + "\n"


def _outcome(parse, text):
    """(name, dim, table, scale) of the parsed algebra, or the error raised."""
    try:
        L = parse(text)
    except BlowupLabError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return L.name, L.dim, L._table, L._scale


def _reference_unvalidated(text):
    doc = reference_parse_document(text)
    table: dict = {}
    for i, j, k, value in doc.brackets:
        table.setdefault((i, j), {})[k] = value
    return LieAlgebra(doc.dim, table, name=doc.name)


# two bad brackets, out of range and i > j, reported in document order
TWO_BAD_BRACKETS = ("bracket: 1 5 2 1", "bracket: 2 1 3 1")
METADATA_DOCUMENT = (
    "schema_version: 1\nname: so3\ndimension: 3\nexpected_verdict: lifts_as_dirac_only\n"
    "bracket: 1 2 3 1\nbracket: 2 3 1 1\nexpected_height: 1\nbracket: 1 3 2 -1\n"
    "note: compact # and simple\n"
)


@settings(SETTINGS, max_examples=600)
@given(text=st.one_of(
    st.text(), documents(), st.lists(lines, max_size=6).map("\n".join),
    bench_documents(), bench_documents(),
))
@example(text="schema_version: 1\n{}\n{}\ndimension: 3\n".format(*TWO_BAD_BRACKETS))
@example(text="schema_version: 1\n{1}\n{0}\ndimension: 3\n".format(*TWO_BAD_BRACKETS))
@example(text=METADATA_DOCUMENT)
def test_the_parser_matches_the_record_building_parser(text):
    for parse, reference in (
        (parse_document, _reference_unvalidated),
        (parse_algebra, lambda t: reference_parse_document(t).to_algebra()),
    ):
        got = _outcome(parse, text)
        event(f"{parse.__name__}: {'parsed' if isinstance(got[0], str) else got[0].__name__}")
        assert got == _outcome(reference, text)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_the_first_bad_bracket_in_the_document_is_reported(order):
    first, second = (TWO_BAD_BRACKETS[n] for n in order)
    text = f"schema_version: 1\n{first}\n{second}\ndimension: 3\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert info.value.line == 2


def test_metadata_is_accepted_and_not_kept():
    assert serialize_algebra(parse_algebra(METADATA_DOCUMENT)) == serialize_algebra(so3())


# -- the polynomial grammar against sympy --------------------------------------------------------

RING = PolyRing(("y1", "y2"))
Y = sympy.symbols("y1 y2")


def _as_sympy(poly: Polynomial):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(y**e for y, e in zip(Y, exps)))
         for exps, c in poly.terms.items()),
        sympy.Integer(0),
    )


def _assert_means_what_sympy_reads(text: str) -> None:
    want = sympy.expand(sympy.sympify(text.replace("^", "**"), rational=True))
    assert sympy.expand(_as_sympy(parse_polynomial(text, RING)) - want) == 0, text


@pytest.mark.parametrize(
    "text", ["y1 + -y2^2", "y1 - -y2^2", "--y2^2", "1 + -y1^2", "y1*+y2", "y1 + +y2", "-2^2"]
)
def test_a_sign_applies_to_the_power_after_it(text):
    _assert_means_what_sympy_reads(text)


def test_whitespace_before_and_after_any_token_is_ignored():
    assert parse_polynomial(" y1 -\t-y2 ^ 2 \n", RING) == parse_polynomial("y1--y2^2", RING)


# Each draw returns (text, degree as written, largest degree as written of
# any subexpression).  A p/q literal is never raised to a power: "2/3^2" is
# (2/3)^2 here but 2/(3^2) in Python.
def _sum(draw, depth):
    terms = [_product(draw, depth) for _ in range(draw(st.integers(1, 3)))]
    text = terms[0][0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", " - ", "+", "-"])) + term[0]
    return text, max(t[1] for t in terms), max(t[2] for t in terms)


def _product(draw, depth):
    factors = [_unary(draw, depth) for _ in range(draw(st.integers(1, 3)))]
    degree = sum(f[1] for f in factors)
    return "*".join(f[0] for f in factors), degree, max(degree, *(f[2] for f in factors))


def _unary(draw, depth):
    text, degree, peak = _factor(draw, depth)
    return draw(st.sampled_from(["", "", "-", "+", "--", "+-"])) + text, degree, peak


def _factor(draw, depth):
    kind = draw(st.sampled_from(["name", "p", "p/q", "(sum)"][: 4 if depth else 3]))
    if kind == "p/q":
        return f"{draw(st.integers(0, 12))}/{draw(st.integers(1, 9))}", 0, 0
    if kind == "(sum)":
        text, degree, peak = _sum(draw, depth - 1)
        text = f"({text})"
    elif kind == "name":
        text, degree, peak = draw(st.sampled_from(["y1", "y2"])), 1, 1
    else:
        text, degree, peak = str(draw(st.integers(0, 12))), 0, 0
    if draw(st.booleans()):
        exponent = draw(st.integers(0, 4))
        text, degree = f"{text}^{exponent}", degree * exponent
        peak = max(peak, degree)
    return text, degree, peak


@st.composite
def polynomial_texts(draw):
    return _sum(draw, 2)


@SETTINGS
@given(drawn=polynomial_texts())
def test_polynomial_text_means_what_sympy_reads(drawn):
    text, _, peak = drawn
    if peak > MAX_POWER_DEGREE:
        event("over the degree cap")
        with pytest.raises(ParseError):
            parse_polynomial(text, RING)
        return
    event(f"powers: {'^' in text}")
    _assert_means_what_sympy_reads(text)
