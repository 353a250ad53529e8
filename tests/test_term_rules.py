"""The two rules on canonical term maps, `rings.add_term` and
`rings.join_terms`, against the hand-written loops they replaced.

`Polynomial` and the graded forms once each accumulated terms in their own
`__init__` and `__add__` loops, and each rendering compared every
coefficient with +-scale before `join_signed` joined the pieces.  Those
bodies are kept in `tests/reference.py`; on hypothesis-drawn polynomials and
forms (int and Fraction coefficients, +-scale among them, constant and
multi-term polynomial coefficients, index keys such as (1, 2) and (2, 1) in
one map, sums that cancel) the new path gives the same terms in the same key
order and the same text.  Rendering a chart form reads +-1 off the printed
coefficient, so it compares no polynomial with an int.
"""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from blowuplab import RATIONALS, GradedForm, PolyRing, Polynomial
from blowuplab.cli import main
from blowuplab.poisson_spinor import ChartForm
from blowuplab.rings import add_term, join_terms
from reference import alternating_add, alternating_render, old_form, old_polynomial
from reference import polynomial_add, polynomial_render

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
VARS = ("y1", "y2")
POLY = PolyRing(VARS)
NAMES = ("θ1", "θ2", "θ3")
SO4 = Path(__file__).resolve().parent / "golden" / "so4.alg"

exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
# (1, 2) and (2, 1) name one basis element up to sign, and (1, 1) none
index_keys = st.sampled_from(
    [(), (1,), (2,), (3,), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (1, 2, 3), (3, 2, 1), (2, 1, 3), (1, 1)]
)


def coefficients(scale: int, ints: bool):
    """Small ints and fractions, zero and +-scale among them."""
    whole = st.integers(-3, 3) | st.sampled_from([scale, -scale])
    if ints:
        return whole
    return whole | whole.map(Fraction) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def same_terms(new: dict, old: dict):
    assert list(new.items()) == list(old.items())
    assert [type(c) for c in new.values()] == [type(c) for c in old.values()]


def cancelling(data, terms: dict, extra: dict) -> dict:
    """`extra` with the negation of some of `terms`, so a sum cancels there."""
    out = dict(extra)
    for key, coeff in terms.items():
        if data.draw(st.booleans()):
            out[key] = -coeff
    return out


def polynomial(terms: dict, ints: bool) -> Polynomial:
    """The polynomial of a term map: through the constructor, which makes
    every coefficient a Fraction, or with int coefficients kept."""
    if ints:
        return Polynomial._trusted(VARS, {e: c for e, c in terms.items() if c})
    return Polynomial(VARS, terms)


@SETTINGS
@given(data=st.data(), scale=st.sampled_from([1, 2, 6]), ints=st.booleans())
def test_polynomial_terms_and_text_match_the_hand_written_loops(data, scale, ints):
    maps = st.dictionaries(exponents, coefficients(scale, ints), max_size=6)
    terms = data.draw(maps)
    same_terms(Polynomial(VARS, terms).terms, old_polynomial(VARS, terms).terms)
    p = polynomial(terms, ints)
    q = polynomial(cancelling(data, p.terms, data.draw(maps)), ints)
    total = p + q
    same_terms(total.terms, polynomial_add(p, q).terms)
    for poly in (p, q, total):
        assert poly.render({}, scale) == polynomial_render(poly, {}, scale)


@SETTINGS
@given(
    data=st.data(),
    scale=st.sampled_from([1, 2, 6]),
    ints=st.booleans(),
    ring=st.sampled_from([RATIONALS, POLY]),
)
def test_form_terms_and_text_match_the_hand_written_loops(data, scale, ints, ring):
    if ring is RATIONALS:
        values = coefficients(scale, ints)
    else:
        polys = st.dictionaries(exponents, coefficients(scale, ints), max_size=3)
        values = polys.map(lambda terms: polynomial(terms, ints)) | coefficients(scale, ints)
    maps = st.dictionaries(index_keys, values, max_size=6)
    terms = data.draw(maps)
    a, old = GradedForm(3, ring, terms), old_form(3, ring, terms)
    same_terms(a.terms, old.terms)
    b = GradedForm(3, ring, data.draw(maps))
    b = GradedForm._trusted(3, ring, cancelling(data, a.terms, b.terms))
    total = a + b
    same_terms(total.terms, alternating_add(a, b).terms)
    for form in (a, b, total):
        assert form.render(NAMES, scale) == alternating_render(form, NAMES, scale)


def test_reordered_indices_in_one_map_add_or_cancel():
    for ring, c in ((RATIONALS, Fraction(3, 2)), (POLY, POLY.parse("y1 - 2"))):
        for second in (c, -c):
            terms = {(1, 2): c, (2, 1): second, (3,): 1}
            same_terms(GradedForm(3, ring, terms).terms, old_form(3, ring, terms).terms)
        assert GradedForm(3, ring, {(1, 2): c, (2, 1): c}).is_zero()


def test_add_term_keeps_slots_and_drops_zero_sums():
    terms = {"a": 1, "b": 2}
    add_term(terms, "a", 4)
    add_term(terms, "c", Fraction(1, 2))
    add_term(terms, "b", -2)
    add_term(terms, "d", 0)
    assert list(terms.items()) == [("a", 5), ("c", Fraction(1, 2))]
    assert type(terms["a"]) is int
    add_term(terms, "b", 7)
    assert list(terms) == ["a", "c", "b"]


def test_join_terms_reads_plus_minus_one_off_the_printed_coefficient():
    assert join_terms([]) == "0"
    assert join_terms([("-1", ""), ("1", "x"), ("-1", "y"), ("-3/2", "x*y")]) == (
        "-1 + x - y - 3/2*x*y"
    )
    assert join_terms([("x - 1", "θ1∧θ2"), ("-x", "θ3"), ("2", "")]) == "(x - 1)*θ1∧θ2 - x*θ3 + 2"


def test_rendering_a_chart_form_compares_no_polynomial_with_an_int(monkeypatch):
    calls = {"render": 0, "eq": 0}
    inside = []
    eq, render = Polynomial.__eq__, ChartForm.render

    def counting_eq(self, other):
        calls["eq"] += bool(inside)
        return eq(self, other)

    def watched_render(self):
        calls["render"] += 1
        inside.append(True)
        try:
            return render(self)
        finally:
            inside.pop()

    monkeypatch.setattr(Polynomial, "__eq__", counting_eq)
    monkeypatch.setattr(ChartForm, "render", watched_render)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["spinor", "--input", str(SO4), "--format", "machine"])
    assert code == 0 and '"chart"' in out.getvalue()
    assert calls["render"] > 0
    assert calls["eq"] == 0
