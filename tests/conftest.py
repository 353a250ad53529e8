"""Shared helpers: deterministic random generators for forms and polynomials,
and the benchmark's algebra builders as Lie algebras."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

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
from reference import det, diff

# the builders use fractions only and never import blowuplab
sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
import generators as gen  # noqa: E402


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
        out = out + coeff * diff(poly, j)
    return out


def random_polynomial(rng, ring: PolyRing, max_terms=4, max_degree=3):
    poly = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_degree) for _ in ring.vars)
        poly = poly + Polynomial(ring.vars, {exps: rational(rng)})
    return poly


def as_lie(alg: "gen.Algebra") -> LieAlgebra:
    """A table of `bench/generators.py`, the one table of test algebras, as
    a LieAlgebra with the same name."""
    return LieAlgebra(alg.dim, alg.table, name=alg.name)


def adjoint_extension(L: LieAlgebra) -> LieAlgebra:
    """L x| L_ab, with L acting on an abelian copy of itself by the adjoint
    action: e(3) = so(3) x| R^3 for so3.  The copy is the kernel of the
    Killing form, and the height falls on its annihilator."""
    n = L.dim
    brackets = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            vec = L.bracket_basis(i, j)
            if i < j:
                brackets[(i, j)] = {k + 1: v for k, v in enumerate(vec) if v}
            brackets[(i, n + j)] = {n + k + 1: v for k, v in enumerate(vec) if v}
    return LieAlgebra(2 * n, brackets, name=f"{L.name}_x_ad")


def seeded_matrix(n: int, seed: int, bound: int = 30) -> list[list[Fraction]]:
    """An invertible random rational n x n matrix with entries p/q, |p|, q <= bound."""
    rng = random.Random(seed)
    while True:
        matrix = [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)]
            for _ in range(n)
        ]
        if det(matrix):
            return matrix


def seeded_conjugate(L: LieAlgebra, seed: int, bound: int = 30) -> LieAlgebra:
    """L in the basis b'_j = sum_i M[i][j] b_i, M = seeded_matrix(L.dim, seed, bound)."""
    return change_basis(L, seeded_matrix(L.dim, seed, bound))


@pytest.fixture
def rng():
    return random.Random(20250809)
