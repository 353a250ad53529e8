"""Polynomial ring arithmetic, canonicality, parsing."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy

from blowuplab import ParseError, PolyRing, Polynomial, StructureError
from blowuplab.rings import format_rational, parse_polynomial, parse_rational

from conftest import random_polynomial
from reference import diff, evaluate, restrict_zero, shift_down, substitute

XY = PolyRing(("x", "y"))


def test_rational_parsing_round_trip():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(4, 2)) == "2"


@pytest.mark.parametrize("bad", ["0.5", "1e3", "1.0", "nan", "1/0x", ""])
def test_rational_rejects_inexact(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [0.5, "1/2", Decimal("0.5")], ids=repr)
def test_polynomial_rejects_inexact_coefficients(bad):
    with pytest.raises(StructureError, match="cannot coerce") as info:
        Polynomial(("x",), {(1,): bad})
    assert repr(bad) in str(info.value)


def test_polynomial_exact_coefficients():
    p = Polynomial(("x",), {(1,): 1, (0,): Fraction(1, 2)})
    assert p.terms == {(1,): Fraction(1), (0,): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert Polynomial(("x",), {(1,): Fraction(2, 2), (0,): Fraction(1, 2)}) == p


def test_polynomial_canonical_no_zero_terms():
    p = Polynomial(("x", "y"), {(1, 0): 1, (0, 1): 2})
    q = Polynomial(("x", "y"), {(1, 0): -1})
    assert (p + q).terms == {(0, 1): Fraction(2)}
    assert not (p - p)


def test_polynomial_terms_canonical_after_arithmetic(rng):
    for _ in range(30):
        p = random_polynomial(rng, XY)
        q = random_polynomial(rng, XY)
        prod = p * q
        assert all(c != 0 for c in prod.terms.values())
        assert all(isinstance(c, Fraction) for c in prod.terms.values())
        backwards = Polynomial(XY.vars, dict(reversed(prod.terms.items())))
        assert backwards == prod and str(backwards) == str(prod)


def _to_sympy(poly: Polynomial, symbols):
    expr = sympy.Integer(0)
    for exps, coeff in poly.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, exps):
            term *= s**e
        expr += term
    return sympy.expand(expr)


def test_arithmetic_matches_sympy(rng):
    symbols = sympy.symbols("x y")
    for _ in range(50):
        p = random_polynomial(rng, XY)
        q = random_polynomial(rng, XY)
        assert _to_sympy(p * q, symbols) == sympy.expand(_to_sympy(p, symbols) * _to_sympy(q, symbols))
        assert _to_sympy(p + q, symbols) == _to_sympy(p, symbols) + _to_sympy(q, symbols)
        assert _to_sympy(diff(p, 1), symbols) == sympy.diff(_to_sympy(p, symbols), symbols[0])


def test_substitute_and_evaluate(rng):
    target = PolyRing(("u", "v"))
    images = [target.parse("u*v"), target.parse("u + 1")]
    for _ in range(20):
        p = random_polynomial(rng, XY)
        composed = substitute(p, images)
        for _ in range(5):
            u = Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
            v = Fraction(rng.randint(-5, 5), rng.choice((1, 2)))
            assert evaluate(composed, (u, v)) == evaluate(p, (u * v, u + 1))


def test_shift_down_and_restrict():
    p = XY.parse("x^2*y + x^3")
    assert shift_down(p, 1, 2) == XY.parse("y + x")
    assert restrict_zero(p, 1) == XY.zero()
    assert p.valuation(1) == 2
    with pytest.raises(Exception):
        shift_down(XY.parse("x + y"), 1, 1)


def test_power_and_equality():
    p = XY.parse("x + y")
    assert p**2 == XY.parse("x^2 + 2*x*y + y^2")
    assert p**0 == 1
    assert XY.const(Fraction(5, 3)) == Fraction(5, 3)


def test_ring_mismatch_rejected():
    other = PolyRing(("a",))
    with pytest.raises(StructureError):
        XY.parse("x") + other.parse("a")
    with pytest.raises(StructureError):
        XY.coerce(other.parse("a"))


def test_parse_polynomial_forms():
    assert XY.parse("-3/2*x^2 + y - 1") == Polynomial(
        ("x", "y"), {(2, 0): Fraction(-3, 2), (0, 1): 1, (0, 0): -1}
    )
    assert XY.parse("(x + y)^2") == XY.parse("x^2 + 2*x*y + y^2")
    assert XY.parse("0") == XY.zero()
    with pytest.raises(ParseError):
        XY.parse("0.5*x")
    with pytest.raises(ParseError):
        XY.parse("x + z")
    with pytest.raises(ParseError):
        XY.parse("x +")


def test_rendering_graded_order():
    p = XY.parse("x^2 + 1 + y^2 + x")
    assert str(p) == "1 + x + x^2 + y^2"
    assert str(XY.parse("-x")) == "-x"
    assert str(XY.zero()) == "0"
    assert str(XY.parse("y - 2*x")) == "-2*x + y"
