"""Shared helpers: deterministic random generators for forms and polynomials."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blowuplab import GradedForm, GradedVector, PolyRing, Polynomial, RATIONALS


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


@pytest.fixture
def rng():
    return random.Random(20250809)
