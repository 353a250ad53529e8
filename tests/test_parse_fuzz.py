"""Fuzzing of the document parser: any text either parses to an
AlgebraDocument or is rejected with a ParseError, never another exception,
except that a declared dimension over the work budget MAX_DIM is refused
with a DomainError (a usage error at the command line).

Two sources of input: arbitrary text, and documents shaped like the grammar
whose literals are drawn from valid, malformed, zero-denominator and
over-long (beyond the 4,300 digits that int() accepts) spellings.
"""

from __future__ import annotations

from hypothesis import event, given, settings
from hypothesis import strategies as st

from blowuplab import AlgebraDocument, DomainError, ParseError, parse_document
from blowuplab.model_io import MAX_DIM

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
    assert isinstance(doc, AlgebraDocument)


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
