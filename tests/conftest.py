"""Shared helpers: deterministic random generators for forms and polynomials."""

from __future__ import annotations

import itertools
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
from reference import det, diff


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


def matrix_algebra(name: str, matrices, coordinates) -> LieAlgebra:
    """The span of square matrices under the commutator; coordinates(m)
    gives the coefficients of m in the basis `matrices`."""
    size = range(len(matrices[0]))
    brackets = {}
    for p, q in itertools.combinations(range(len(matrices)), 2):
        a, b = matrices[p], matrices[q]
        commutator = [
            [sum(a[i][t] * b[t][j] - b[i][t] * a[t][j] for t in size) for j in size] for i in size
        ]
        coords = coordinates(commutator)
        if any(coords):
            brackets[(p + 1, q + 1)] = {k + 1: v for k, v in enumerate(coords) if v}
    return LieAlgebra(len(matrices), brackets, name=name)


def _unit(n: int, r: int, c: int) -> list[list[int]]:
    return [[int((i, j) == (r, c)) for j in range(n)] for i in range(n)]


def _minus(a, b):
    return [[x - y for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a, b)]


def sl3() -> LieAlgebra:
    """sl(3) on the basis E_ij (i != j), E_11 - E_22, E_22 - E_33."""
    units = [(i, j) for i in range(3) for j in range(3) if i != j]
    diagonals = [_minus(_unit(3, h, h), _unit(3, h + 1, h + 1)) for h in range(2)]

    def coordinates(m):
        # diag(a, b, c) with a + b + c = 0 is a (E_11 - E_22) - c (E_22 - E_33)
        return [m[i][j] for i, j in units] + [m[0][0], -m[2][2]]

    return matrix_algebra("sl3", [_unit(3, *u) for u in units] + diagonals, coordinates)


def gl(n: int) -> LieAlgebra:
    """gl(n) on the matrix units E_rc, row-major."""
    units = [_unit(n, r, c) for r in range(n) for c in range(n)]
    return matrix_algebra(f"gl{n}", units, lambda m: [v for row in m for v in row])


def so(n: int) -> LieAlgebra:
    """so(n) on A_rc = E_rc - E_cr, r < c."""
    pairs = list(itertools.combinations(range(n), 2))
    basis = [_minus(_unit(n, r, c), _unit(n, c, r)) for r, c in pairs]
    return matrix_algebra(f"so{n}", basis, lambda m: [m[r][c] for r, c in pairs])


def heis(m: int) -> LieAlgebra:
    """The Heisenberg algebra of dimension 2m+1: [x_i, y_i] = z."""
    return LieAlgebra(2 * m + 1, {(i, m + i): {2 * m + 1: 1} for i in range(1, m + 1)},
                      name=f"heis{2 * m + 1}")


def filiform(n: int) -> LieAlgebra:
    """The model filiform algebra: [e_1, e_i] = e_(i+1) for 2 <= i < n."""
    return LieAlgebra(n, {(1, i): {i + 1: 1} for i in range(2, n)}, name=f"filiform{n}")


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
