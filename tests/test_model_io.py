"""Document parsing, serialization round-trips, catalog, report determinism."""

from __future__ import annotations

from fractions import Fraction

import json
import re
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import (
    DomainError,
    JacobiError,
    LieAlgebra,
    ParseError,
    abelian,
    catalog_algebra,
    catalog_entries,
    check_line_orders,
    diagonal_affine,
    emit_report,
    heis3,
    lift_verdict,
    orbit_rank_crosscheck,
    parse_algebra,
    parse_document,
    sample_height_spectrum,
    scaled_so3_bundle,
    serialize_algebra,
    sl2,
    so3,
)
from blowuplab.model_io import analysis_to_dict

SO3_DOC = """
# compact simple three-dimensional algebra
schema_version: 1
name: so3
dimension: 3
bracket: 1 2 3 1
bracket: 2 3 1 1
bracket: 1 3 2 -1
expected_verdict: lifts_as_dirac_only
expected_height: 1
"""


def test_parse_so3_document():
    algebra = parse_document(SO3_DOC)
    assert algebra.name == "so3"
    assert algebra.dim == 3
    assert algebra.validate() is algebra
    assert algebra.bracket_basis(2, 1) == [0, 0, -1]
    assert algebra.jacobi_violations() == []


def test_parse_rejects_float_literal():
    bad = SO3_DOC.replace("bracket: 1 2 3 1", "bracket: 1 2 3 0.5")
    with pytest.raises(ParseError) as info:
        parse_document(bad)
    assert "exact rational" in str(info.value) or "float" in str(info.value)


def test_parse_rejects_jacobi_violation_naming_triple():
    doc = """
schema_version: 1
name: broken
dimension: 3
bracket: 1 2 3 1
bracket: 2 3 2 1
bracket: 1 3 2 -1
"""
    with pytest.raises(JacobiError) as info:
        parse_algebra(doc)
    assert info.value.violations[0][0] == (1, 2, 3)
    assert "(1, 2, 3)" in str(info.value)


def test_parse_line_numbers_and_shape_errors():
    with pytest.raises(ParseError) as info:
        parse_document("schema_version: 1\ndimension: 2\nbracket: 1 2 3\n")
    assert info.value.line == 3

    with pytest.raises(ParseError):
        parse_document("schema_version: 1\ndimension: 2\nbracket: 1 2 5 1\n")
    with pytest.raises(ParseError):
        parse_document("schema_version: 1\ndimension: 2\nbracket: 2 1 1 1\n")
    with pytest.raises(ParseError):
        parse_document(
            "schema_version: 1\ndimension: 2\nbracket: 1 2 1 1\nbracket: 1 2 1 2\n"
        )
    with pytest.raises(ParseError):
        parse_document("schema_version: 1\ndimension: 2\nmystery: 3\n")
    with pytest.raises(ParseError):
        parse_document("schema_version: 1\nname: x\n")
    with pytest.raises(ParseError):
        parse_document("dimension: 2\n")
    with pytest.raises(ParseError):
        parse_document("schema_version: 2\ndimension: 2\n")


# SO3_DOC's scalar keys sit on lines 3-5, 9 and 10; a note is added on line 11
@pytest.mark.parametrize(
    ("line", "first"),
    [
        ("schema_version: 1", 3),
        ("name: other", 4),
        ("dimension: 3", 5),
        ("expected_verdict: does_not_lift", 9),
        ("expected_height: 2", 10),
        ("note: again", 11),
    ],
)
def test_parse_rejects_a_repeated_scalar_key_naming_the_first_line(line, first):
    key = line.partition(":")[0]
    with pytest.raises(ParseError) as info:
        parse_document(SO3_DOC + "note: first\n" + line + "\n")
    assert str(info.value) == f"line 12: duplicate key {key!r}; first on line {first}"


def test_round_trip_catalog():
    for L in (so3(), sl2(), heis3(), abelian(4), diagonal_affine(3)):
        text = serialize_algebra(L)
        back = parse_algebra(text)
        assert back.dim == L.dim
        assert back.name == L.name
        assert (back._table, back._scale) == (L._table, L._scale)


def test_round_trip_preserves_the_name():
    for name in ("so3~conj", "aff: v2", "R x| R^3"):
        L = LieAlgebra(3, {(1, 2): {3: 1}}, name=name)
        assert parse_document(serialize_algebra(L)).name == name


@pytest.mark.parametrize("value", ["a # b", "a\nb", " a", "a ", "a\rb", "a\x1cb"])
def test_serialize_refuses_values_the_parser_would_change(value):
    # the format has no escape: "#" starts a comment, a line break ends the
    # line and the parser strips surrounding whitespace
    with pytest.raises(DomainError, match=re.escape(repr(value))):
        serialize_algebra(LieAlgebra(3, {(1, 2): {3: 1}}, name=value))


def test_catalog_entries_cover_expected_names():
    names = {e.name for e in catalog_entries()}
    assert {"so3", "sl2", "heis3", "scaled_so3_bundle"} <= names
    assert {f"abelian{n}" for n in range(1, 7)} <= names
    assert {f"diagonal_affine{n}" for n in range(1, 6)} <= names
    by_name = {e.name: e for e in catalog_entries()}
    assert by_name["so3"].expected_height == 1
    assert by_name["abelian3"].expected_verdict == "lifts_as_poisson"
    assert by_name["scaled_so3_bundle"].kind == "bundle"


def test_catalog_algebra_resolution():
    assert catalog_algebra("abelian2").dim == 2
    assert catalog_algebra("diagonal_affine4").dim == 5
    assert catalog_algebra("abelian12").dim == 12
    with pytest.raises(DomainError):
        catalog_algebra("abelian13")
    with pytest.raises(DomainError):
        catalog_algebra("nonsense")
    with pytest.raises(DomainError):
        catalog_algebra("abelian0")


def test_scaled_bundle_parses_f():
    pi, scale = scaled_so3_bundle("y1^2 - 1")
    ring = pi.ring
    assert scale == 1
    assert pi.coefficient((1, 2)) == ring.parse("(y1^2 - 1)*x3")
    assert pi.coefficient((3, 1)) == ring.parse("(y1^2 - 1)*x2")
    # a rational f gives D f in ints and the lcm D of its denominators
    pi, scale = scaled_so3_bundle("1/2*y1 + 1/3")
    assert scale == 6
    assert pi.coefficient((2, 3)) == ring.parse("(3*y1 + 2)*x1")


def _analysis(L, samples=20, seed=1729):
    """The parts of an analyze report, in the order analysis_to_dict takes them."""
    return (
        L,
        seed,
        samples,
        lift_verdict(L, seed=seed, samples=samples),
        sample_height_spectrum(L, samples, seed=seed),
        orbit_rank_crosscheck(L, samples, seed=seed),
        check_line_orders(L, samples, seed=seed),
    )


def test_emit_report_deterministic_and_parseable():
    first = emit_report("machine", analysis_to_dict, *_analysis(heis3()))
    second = emit_report("machine", analysis_to_dict, *_analysis(heis3()))
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"]["kind"] == "does_not_lift"
    assert payload["spectrum"]["heights"].keys() == {"0", "1"}
    assert payload["orbit_crosscheck"]["mismatches"] == 0

    human = emit_report("human", analysis_to_dict, *_analysis(heis3()))
    assert "does not lift" in human
    assert human == emit_report("human", analysis_to_dict, *_analysis(heis3()))


# strings with what JSON escapes: the wedge, quotes, backslashes, controls
json_text = st.text(
    st.sampled_from(["a", "0", " ", "\u2227", '"', "\\", "\n", "\x00", "\x1f", "\u00e9", "\U0001d400"]),
    max_size=6,
)
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | json_text
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=24,
)


def _machine(value) -> str:
    return emit_report("machine", lambda document: document, value)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(value=json_values)
def test_machine_output_is_the_sorted_indented_json_dump(value):
    assert _machine(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_machine_output_sorts_int_keys_as_ints_and_rejects_other_types():
    document = {10: ["x", {}], 2: [], 3: {2: True, 10: None}}
    expected = json.dumps(document, sort_keys=True, indent=2) + "\n"
    assert _machine(document) == expected
    assert expected.index('"2"') < expected.index('"3"') < expected.index('"10"')
    # a float, a key of another type, a set, and str keys beside int ones
    for bad in ({"x": 1.5}, [0.5], {1.5: "x"}, {True: "x"}, {(1, 2): "x"}, {"x": {1}}, {"2": 0, 10: 0}):
        with pytest.raises(TypeError):
            _machine(bad)


def test_emit_report_so3_content():
    payload = json.loads(emit_report("machine", analysis_to_dict, *_analysis(so3())))
    assert payload["verdict"]["kind"] == "lifts_as_dirac_only"
    assert payload["verdict"]["constant_height"] == 1
    charts = payload["verdict"]["charts"]
    assert all(entry["order"] == 1 for entry in charts.values())
    assert all(entry["status"] == "certified" for entry in charts.values())
