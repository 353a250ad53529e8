"""Shared helpers: deterministic random generators for forms and polynomials."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blowuplab import (
    GradedForm,
    GradedVector,
    LieAlgebra,
    PolyRing,
    Polynomial,
    RATIONALS,
    change_basis,
)
from blowuplab.linalg import det


def rational(rng: random.Random, bound: int = 8) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))


def nonzero_rational(rng: random.Random, bound: int = 8) -> Fraction:
    while True:
        q = rational(rng, bound)
        if q:
            return q


def random_form(rng, dim, max_terms=4, degrees=None, cls=GradedForm, ring=RATIONALS):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.choice(degrees) if degrees else rng.randint(0, dim)
        indices = tuple(sorted(rng.sample(range(1, dim + 1), degree)))
        terms[indices] = rational(rng)
    return cls(dim, ring, terms)


def random_homogeneous(rng, dim, degree, cls=GradedForm, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        indices = tuple(sorted(rng.sample(range(1, dim + 1), degree)))
        terms[indices] = rational(rng)
    return cls(dim, RATIONALS, terms)


def random_vector_field(rng, ring: PolyRing, vanish_at_zero=True):
    """Random polynomial coefficients per coordinate direction."""
    m = len(ring.vars)
    coeffs = []
    for _ in range(m):
        poly = ring.zero()
        for _ in range(rng.randint(0, 3)):
            exps = [rng.randint(0, 2) for _ in range(m)]
            if vanish_at_zero and not any(exps):
                exps[rng.randrange(m)] = 1
            poly = poly + Polynomial(ring.vars, {tuple(exps): rational(rng)})
        coeffs.append(poly)
    return coeffs


def apply_field(coeffs, poly: Polynomial) -> Polynomial:
    """The derivation sum_j coeffs[j] * d(poly)/dx_j, for coefficients in
    the ring of poly (a lifted field acting on a chart polynomial)."""
    out = PolyRing(poly.vars).zero()
    for j, coeff in enumerate(coeffs, start=1):
        out = out + coeff * poly.diff(j)
    return out


def random_polynomial(rng, ring: PolyRing, max_terms=4, max_degree=3):
    poly = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in ring.vars)
        poly = poly + Polynomial(ring.vars, {exps: rational(rng)})
    return poly


def sl3() -> LieAlgebra:
    """sl(3) on the basis E_ij (i != j), E_11 - E_22, E_22 - E_33, with the
    brackets read off the matrix commutators."""
    units = [(i, j) for i in range(3) for j in range(3) if i != j]

    def matrix(k):
        out = [[0] * 3 for _ in range(3)]
        if k < len(units):
            i, j = units[k]
            out[i][j] = 1
        else:
            h = k - len(units)
            out[h][h], out[h + 1][h + 1] = 1, -1
        return out

    def coordinates(m):
        # diag(a, b, c) with a + b + c = 0 is a (E_11 - E_22) - c (E_22 - E_33)
        return [m[i][j] for i, j in units] + [m[0][0], -m[2][2]]

    def bracket(a, b):
        return [
            [sum(a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in range(3)) for j in range(3)]
            for i in range(3)
        ]

    brackets = {}
    for p in range(8):
        for q in range(p + 1, 8):
            coords = coordinates(bracket(matrix(p), matrix(q)))
            if any(coords):
                brackets[(p + 1, q + 1)] = {k + 1: v for k, v in enumerate(coords) if v}
    return LieAlgebra(8, brackets, name="sl3")


def seeded_conjugate(L: LieAlgebra, seed: int, bound: int = 30) -> LieAlgebra:
    """L in a random rational basis with entries p/q, |p|, q <= bound."""
    rng = random.Random(seed)
    while True:
        matrix = [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(L.dim)]
            for _ in range(L.dim)
        ]
        if det(matrix):
            return change_basis(L, matrix)


@pytest.fixture
def rng():
    return random.Random(20250809)
