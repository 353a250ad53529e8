"""Exterior algebra laws: wedge, insertion, exponential of insertion."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blowuplab import (
    GradedForm,
    GradedVector,
    PolyRing,
    RATIONALS,
    StructureError,
)
from blowuplab.errors import DomainError

from conftest import random_form, random_homogeneous, rational
from reference import exp_interior, interior, multi_interior, term


def dx(dim, *indices):
    return term(GradedForm, dim, indices)


def ev(dim, *indices):
    return term(GradedVector, dim, indices)


def test_wedge_basis_cases():
    assert dx(4, 1).wedge(dx(4, 2)) == dx(4, 1, 2)
    assert dx(4, 1).wedge(dx(4, 1)).is_zero()
    left = dx(4, 1, 2).wedge(dx(4, 3, 4))
    right = dx(4, 3, 4).wedge(dx(4, 1, 2))
    assert left == right == dx(4, 1, 2, 3, 4)


def test_index_normalization_signs():
    assert dx(3, 2, 1) == -dx(3, 1, 2)
    assert dx(3, 2, 2).is_zero()
    assert GradedForm(3, RATIONALS, {(3, 1, 2): 1}) == dx(3, 1, 2, 3)


def test_interior_basis_cases():
    assert interior(ev(3, 1), dx(3, 1, 2)) == dx(3, 2)
    assert interior(ev(3, 2), dx(3, 1, 2)) == -dx(3, 1)
    assert interior(ev(3, 3), dx(3, 1, 2)).is_zero()


def test_multi_interior_convention():
    # i_{e1 ^ e2} = i_{e2} i_{e1}
    assert multi_interior(ev(3, 1, 2), dx(3, 1, 2)) == dx(3)
    assert multi_interior(ev(3, 1, 2), dx(3, 2, 1)) == term(GradedForm, 3, (), -1)
    assert multi_interior(ev(3, 1, 2), dx(3, 1, 3)).is_zero()


def test_exp_interior_small_cases():
    lam = dx(4, 1, 2, 3, 4)
    assert exp_interior(GradedVector(4, RATIONALS), lam) == lam
    lam2 = dx(2, 1, 2)
    c = Fraction(5, 3)
    result = exp_interior(term(GradedVector, 2, (1, 2), c), lam2)
    assert result == lam2 + term(GradedForm, 2, (), c)


def test_exp_interior_constant_so3_point():
    # linear so(3) bivector frozen at the point (2, -1/2, 3)
    x = (Fraction(2), Fraction(-1, 2), Fraction(3))
    pi = GradedVector(3, RATIONALS, {(1, 2): x[2], (1, 3): -x[1], (2, 3): x[0]})
    lam = dx(3, 1, 2, 3)
    expected = lam + GradedForm(3, RATIONALS, {(1,): x[0], (2,): x[1], (3,): x[2]})
    assert exp_interior(pi, lam) == expected


def test_wedge_graded_commutativity_randomized(rng):
    checked = 0
    while checked < 120:
        dim = rng.randint(1, 8)
        p = rng.randint(0, dim)
        q = rng.randint(0, dim)
        a = random_homogeneous(rng, dim, p)
        b = random_homogeneous(rng, dim, q)
        sign = (-1) ** (p * q)
        lhs = a.wedge(b)
        rhs = b.wedge(a)
        assert lhs == (rhs if sign > 0 else -rhs)
        checked += 1


def test_wedge_bilinear_associative(rng):
    for _ in range(60):
        dim = rng.randint(2, 6)
        a = random_form(rng, dim)
        b = random_form(rng, dim)
        c = random_form(rng, dim)
        assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_interior_graded_derivation(rng):
    checked = 0
    while checked < 120:
        dim = rng.randint(1, 7)
        p = rng.randint(0, dim)
        a = random_homogeneous(rng, dim, p)
        b = random_form(rng, dim)
        v = GradedVector(
            dim, RATIONALS, {(i,): rational(rng) for i in range(1, dim + 1)}
        )
        lhs = interior(v, a.wedge(b))
        rhs = interior(v, a).wedge(b) + a.wedge(interior(v, b)).scale((-1) ** p)
        assert lhs == rhs
        checked += 1


def test_interior_squares_to_zero(rng):
    for _ in range(100):
        dim = rng.randint(1, 7)
        a = random_form(rng, dim)
        v = GradedVector(
            dim, RATIONALS, {(i,): rational(rng) for i in range(1, dim + 1)}
        )
        assert interior(v, interior(v, a)).is_zero()


def test_exp_interior_top_component_and_degree_steps(rng):
    for _ in range(60):
        dim = rng.randint(2, 7)
        pi = random_homogeneous(rng, dim, 2, cls=GradedVector)
        lam = term(GradedForm, dim, tuple(range(1, dim + 1)), rational(rng) or 1)
        result = exp_interior(pi, lam)
        top = [(i, c) for i, c in result.ordered_terms() if len(i) == dim]
        assert top == lam.ordered_terms()
        assert all((dim - len(i)) % 2 == 0 for i, _ in result.ordered_terms())


def test_polynomial_coefficient_closure(rng):
    ring = PolyRing(("x1", "x2"))
    a = GradedForm(2, ring, {(1,): ring.parse("x1"), (2,): ring.parse("x2 - 1")})
    b = GradedForm(2, ring, {(): ring.parse("3*x1*x2")})
    out = a.wedge(b) + a.scale(Fraction(1, 2))
    assert all(type(c).__name__ == "Polynomial" for c in out.terms.values())
    v = GradedVector(2, ring, {(1,): ring.const(1)})
    assert interior(v, a) == GradedForm(2, ring, {(): ring.parse("x1")})


def test_structure_errors():
    with pytest.raises(StructureError):
        dx(3, 1).wedge(dx(4, 1))
    ring = PolyRing(("a",))
    with pytest.raises(StructureError):
        dx(3, 1).wedge(GradedForm(3, ring, {(1,): 1}))
    with pytest.raises(StructureError):
        interior(dx(3, 1), dx(3, 1))  # form in vector slot
    with pytest.raises(DomainError):
        interior(ev(3, 1, 2), dx(3, 1, 2))  # degree-2 vector in interior
    with pytest.raises(DomainError):
        exp_interior(ev(3, 1), dx(3, 1, 2, 3))  # degree-1 vector in exp
    with pytest.raises(StructureError):
        dx(3, 0)
    with pytest.raises(StructureError):
        dx(3, 4)
