"""Benchmark inputs: Lie algebras built from first principles, emitted as
schema-1 documents.

Every builder returns an ``Algebra``: a dimension, a sparse i<j bracket table
and the family it belongs to, which the oracle maps to the verdict the
paper's classification predicts.  The builders use only ``fractions`` and
never import ``blowuplab``, so a bug in the program cannot leak into the
benchmark's inputs or its expectations.  ``jacobi_defects`` checks each table
independently of the program's own validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# family tags understood by oracle.expected_verdict
ABELIAN = "abelian"
DIAGONAL_AFFINE = "diagonal_affine"  # R x| R^n, the line acting as the identity
SO3 = "so3"
OTHER = "other"

Table = dict[tuple[int, int], dict[int, Fraction]]


@dataclass(frozen=True)
class Algebra:
    name: str
    dim: int
    table: Table  # (i, j) with i < j -> {k: c_ijk}, zeros omitted
    family: str
    generic_height: int  # height of a generic covector, from Lie theory

    def bracket_vector(self, i: int, j: int) -> list[Fraction]:
        out = [Fraction(0)] * self.dim
        if i == j:
            return out
        sign, key = (1, (i, j)) if i < j else (-1, (j, i))
        for k, value in self.table.get(key, {}).items():
            out[k - 1] = sign * value
        return out


def _clean(table: dict) -> Table:
    out = {}
    for key, comps in sorted(table.items()):
        comps = {k: Fraction(v) for k, v in sorted(comps.items()) if v}
        if comps:
            out[key] = comps
    return out


def _from_matrices(name: str, basis: list, coords, family: str, generic_height: int) -> Algebra:
    """Structure constants of a matrix Lie algebra from its basis matrices and
    a coordinate map (matrix -> coordinate list in that basis)."""
    n = len(basis[0])

    def commutator(a, b):
        return [
            [
                sum(a[r][m] * b[m][c] - b[r][m] * a[m][c] for m in range(n))
                for c in range(n)
            ]
            for r in range(n)
        ]

    table = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            vec = coords(commutator(basis[i], basis[j]))
            table[(i + 1, j + 1)] = {k + 1: v for k, v in enumerate(vec) if v}
    return Algebra(name, len(basis), _clean(table), family, generic_height)


def _unit(n: int, r: int, c: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    m[r][c] = 1
    return m


# Generic heights of the reductive algebras: a generic covector is regular
# semisimple, so its coadjoint orbit has dimension dim - rank and it is of
# type one (it pairs nontrivially with its own stabilizer); its height is
# therefore (dim - rank) / 2.


def gl(n: int) -> Algebra:
    """gl(n) on the matrix units E_rc, row-major."""
    basis = [_unit(n, r, c) for r in range(n) for c in range(n)]
    coords = lambda m: [m[r][c] for r in range(n) for c in range(n)]  # noqa: E731
    return _from_matrices(f"gl{n}", basis, coords, OTHER, (n * n - n) // 2)


def sl(n: int) -> Algebra:
    """sl(n) on the off-diagonal units E_rc, then H_i = E_ii - E_(i+1)(i+1)."""
    off = [(r, c) for r in range(n) for c in range(n) if r != c]
    basis = [_unit(n, r, c) for r, c in off]
    for i in range(n - 1):
        h = _unit(n, i, i)
        h[i + 1][i + 1] = -1
        basis.append(h)

    def coords(m):
        # a traceless diagonal D = sum_i c_i H_i has c_i = D_11 + ... + D_ii
        diag = []
        running = 0
        for i in range(n - 1):
            running += m[i][i]
            diag.append(running)
        return [m[r][c] for r, c in off] + diag

    return _from_matrices(f"sl{n}", basis, coords, OTHER, (n * n - n) // 2)


def so(n: int) -> Algebra:
    """so(n) on A_rc = E_rc - E_cr, r < c; so(3) is the compact simple case."""
    pairs = [(r, c) for r in range(n) for c in range(r + 1, n)]
    basis = []
    for r, c in pairs:
        a = _unit(n, r, c)
        a[c][r] = -1
        basis.append(a)
    family = SO3 if n == 3 else OTHER
    coords = lambda m: [m[r][c] for r, c in pairs]  # noqa: E731
    return _from_matrices(f"so{n}", basis, coords, family, (len(pairs) - n // 2) // 2)


def heis(dim: int) -> Algebra:
    """Heisenberg algebra of odd dimension 2m+1: [x_i, y_i] = z.  A covector
    with xi(z) != 0 has d(xi) of rank 2m, so its height is m."""
    if dim < 3 or dim % 2 == 0:
        raise ValueError("heis needs an odd dimension >= 3")
    m = (dim - 1) // 2
    table = {(i, m + i): {dim: 1} for i in range(1, m + 1)}
    return Algebra(f"heis{dim}", dim, _clean(table), OTHER, m)


def filiform(n: int) -> Algebra:
    """Model filiform algebra L_n: [e_1, e_i] = e_(i+1) for 2 <= i < n.
    d(xi) = e^1 wedge (...) has rank 2, so a generic covector has height 1."""
    if n < 3:
        raise ValueError("filiform needs dimension >= 3")
    table = {(1, i): {i + 1: 1} for i in range(2, n)}
    return Algebra(f"filiform{n}", n, _clean(table), OTHER, 1)


def abelian(n: int) -> Algebra:
    return Algebra(f"abelian{n}", n, {}, ABELIAN, 0)


def diagonal_affine(n: int) -> Algebra:
    """R x| R^n: the first basis vector acts as the identity on the rest."""
    table = {(1, 1 + i): {1 + i: 1} for i in range(1, n + 1)}
    return Algebra(f"diagonal_affine{n}", n + 1, _clean(table), DIAGONAL_AFFINE, 0)


def anisotropic_sl2() -> Algebra:
    """The real form of sl(2) with [b1,b2] = -3 b3, [b2,b3] = b1, [b3,b1] = b2.

    Its Killing form is indefinite, so it is not so(3); its height-drop cone
    xi1^2 + xi2^2 = 3 xi3^2 has real points but no rational ones.
    """
    table = {(1, 2): {3: -3}, (2, 3): {1: 1}, (1, 3): {2: -1}}
    return Algebra("aniso_sl2", 3, _clean(table), OTHER, 1)


LATE_WITNESS_MATRIX = (
    ("-5/6", "1/3", "4/5"),
    ("1/3", "-5/6", "4/3"),
    ("-5/4", "2", "-1/2"),
)


def late_witness_sl2() -> Algebra:
    """A fixed rational conjugate of sl(2) whose height-drop cone (the
    isotropic cone of the inverse Killing form) holds (-2, 5, -8) but no
    nonzero integer covector of sup-norm below 8.  It has a rational witness
    pair, but a search that sweeps small integer covectors first meets it only
    after thousands of candidates."""
    matrix = [[Fraction(x) for x in row] for row in LATE_WITNESS_MATRIX]
    return conjugate(sl(2), matrix, name="sl2_late")


# -- rational conjugation --------------------------------------------------------


def random_rational_matrix(rng: random.Random, n: int, bound: int = 30) -> list:
    """An invertible n x n matrix with entries p/q, |p| <= bound, 1 <= q <= bound."""
    while True:
        m = [
            [Fraction(rng.randint(-bound, bound), rng.randint(1, bound)) for _ in range(n)]
            for _ in range(n)
        ]
        inv = _inverse(m)
        if inv is not None:
            return m


def _inverse(m: list) -> list | None:
    n = len(m)
    aug = [list(row) + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def conjugate(alg: Algebra, matrix: list, name: str | None = None) -> Algebra:
    """The same algebra in the basis b'_j = sum_i matrix[i][j] b_i."""
    n = alg.dim
    inv = _inverse(matrix)
    if inv is None:
        raise ValueError("conjugating matrix is singular")
    cols = [[matrix[i][j] for i in range(n)] for j in range(n)]

    def bracket(u, v):
        out = [Fraction(0)] * n
        for (i, j), comps in alg.table.items():
            factor = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            if factor:
                for k, value in comps.items():
                    out[k - 1] += factor * value
        return out

    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = bracket(cols[i], cols[j])
            new = [sum(inv[r][m] * w[m] for m in range(n)) for r in range(n)]
            table[(i + 1, j + 1)] = {k + 1: v for k, v in enumerate(new) if v}
    return Algebra(
        name or f"{alg.name}_conj", n, _clean(table), alg.family, alg.generic_height
    )


def seeded_conjugate(alg: Algebra, rng: random.Random, bound: int = 30) -> Algebra:
    return conjugate(alg, random_rational_matrix(rng, alg.dim, bound))


def signed_permutation(alg: Algebra, rng: random.Random) -> Algebra:
    """The same algebra with its basis shuffled and signs flipped: a new input
    document per seed whose cost is that of the original basis."""
    n = alg.dim
    order = list(range(n))
    rng.shuffle(order)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for j, i in enumerate(order):
        matrix[i][j] = Fraction(rng.choice((-1, 1)))
    return conjugate(alg, matrix, name=alg.name)


# -- validation and emission -------------------------------------------------------


def jacobi_defects(alg: Algebra) -> list[tuple[int, int, int]]:
    """Triples i<j<k whose cyclic sum [[b_i,b_j],b_k] + ... is nonzero."""
    n = alg.dim

    def bracket_with_basis(vec, c):
        out = [Fraction(0)] * n
        for a, coeff in enumerate(vec, start=1):
            if coeff:
                for m, value in enumerate(alg.bracket_vector(a, c)):
                    out[m] += coeff * value
        return out

    bad = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                total = [Fraction(0)] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, value in enumerate(bracket_with_basis(alg.bracket_vector(a, b), c)):
                        total[m] += value
                if any(total):
                    bad.append((i, j, k))
    return bad


def _fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def to_document(alg: Algebra) -> str:
    """Schema-1 algebra document; no expected_* metadata is written, so the
    program never sees the oracle's answer."""
    lines = ["schema_version: 1", f"name: {alg.name}", f"dimension: {alg.dim}"]
    for (i, j), comps in sorted(alg.table.items()):
        for k, value in sorted(comps.items()):
            lines.append(f"bracket: {i} {j} {k} {_fmt(value)}")
    return "\n".join(lines) + "\n"
