"""Exact linear algebra over the rationals, and the one place where rational
vectors become integer ones: `integer_multiple` (D times the vector, D the
lcm of its denominators) and `primitive` (that multiple over the gcd of its
entries) feed every integer kernel.  Rank, row-space membership and
definiteness and the reduced echelon basis use one fraction-free (Bareiss)
elimination of ints, which keeps intermediate values integral; only
`rref_basis` and `in_row_space` take rationals, and clear `integer_rows`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import InternalError, StructureError

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def integer_multiple(values: Iterable) -> tuple[int, list[int]]:
    """(D, D * values) for ints and rationals, D the lcm of their denominators."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def primitive(values: Iterable) -> tuple[int, ...]:
    """The positive multiple of a nonzero vector with coprime integer entries."""
    ints = integer_multiple(values)[1]
    content = gcd(*ints)
    return tuple(v // content for v in ints)


def integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Each row of rationals times the lcm of its denominators: rows of ints
    with the same rank and row space."""
    return [integer_multiple(row)[1] for row in rows]


def _eliminate(m: list[list[int]], n_pivot_rows: int) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the integer matrix m in place,
    choosing pivots among its first n_pivot_rows rows only; every row below
    them is reduced as well.  Returns the number of pivots and the number
    of row swaps made to find them.

    By Sylvester's identity each reduced entry is a minor of the original
    matrix, so every division is exact; a reduced row below the pivot rows
    is a nonzero multiple of the original row plus a combination of the
    pivot rows, and it is zero exactly when that row lies in their span.
    """
    if not m:
        return 0, 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    prev = 1
    swaps = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_pivot_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            swaps += 1
        pivot = m[r]
        for i in range(r + 1, n_rows):
            row = m[i]
            lead = row[col]
            for j in range(col + 1, n_cols):
                quot, rem = divmod(row[j] * pivot[col] - lead * pivot[j], prev)
                if rem:
                    raise InternalError("fraction-free elimination produced a non-exact division")
                row[j] = quot
            row[col] = 0
        prev = pivot[col]
        r += 1
        if r == n_pivot_rows:
            break
    return r, swaps


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of a matrix of ints via fraction-free elimination."""
    m = [list(row) for row in rows]
    return _eliminate(m, len(m))[0]


def rank_and_membership(rows: Sequence[Sequence[int]], vector: Sequence[int]) -> tuple[int, bool]:
    """(rank of rows, whether vector lies in their row space), from one
    elimination of [rows; vector] that pivots on the given rows only; ints."""
    m = [list(row) for row in (*rows, vector)]
    r = _eliminate(m, len(rows))[0]
    return r, not any(m[-1])


def is_negative_definite(matrix: Sequence[Sequence[int]]) -> bool:
    """Sylvester's test from one fraction-free elimination of a matrix of
    ints.  When no row is swapped, the k-th pivot is the k-th leading
    principal minor; a needed swap means a leading minor is zero.  So the
    matrix is negative definite exactly when the elimination reaches full
    rank without a swap and its pivots alternate in sign, starting negative."""
    m = [list(row) for row in matrix]
    r, swaps = _eliminate(m, len(m))
    return r == len(m) and not swaps and all((m[k][k] < 0) == (k % 2 == 0) for k in range(r))


def rref_basis(rows: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Reduced row-echelon basis of the row space (zero rows dropped), read
    off one fraction-free elimination: its pivot rows are an echelon basis,
    which back substitution from the bottom row up reduces."""
    m = integer_rows(rows)
    reduced: list[tuple[int, Vector]] = []  # (pivot column, reduced row), bottom up
    for row in reversed(m[: _eliminate(m, len(m))[0]]):
        for col, done in reduced:
            if factor := row[col]:
                row = [a - factor * b for a, b in zip(row, done)]
        col = next(j for j, x in enumerate(row) if x)
        pivot = row[col]
        reduced.append((col, [Fraction(x) / pivot for x in row]))
    return [row for _, row in reversed(reduced)]


def in_row_space(rows: Sequence[Sequence[Fraction]], vector: Sequence[Fraction]) -> bool:
    return rank_and_membership(integer_rows(rows), integer_multiple(vector)[1])[1]


def null_space(rows: Sequence[Sequence[Fraction]], n_cols: int) -> list[list[int]]:
    """Basis of {x : rows . x = 0}, denominators cleared to integer vectors."""
    echelon = rref_basis(rows)
    pivots = []
    for row in echelon:
        pivots.append(next(i for i, x in enumerate(row) if x))
    free = [i for i in range(n_cols) if i not in pivots]
    basis = []
    for f in free:
        vec = [0] * n_cols
        vec[f] = 1
        for row, p in zip(echelon, pivots):
            vec[p] = -row[f]
        basis.append(integer_multiple(vec)[1])
    return basis


def inverse(matrix: Sequence[Sequence[Fraction]]) -> Matrix | None:
    """Exact inverse, or None if singular: the reduced echelon form of
    [matrix | I] is [I | inverse] exactly when the matrix is invertible."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise StructureError("inverse needs a square matrix")
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    echelon = rref_basis([list(row) + unit for row, unit in zip(matrix, identity)])
    if [row[:n] for row in echelon] != identity:
        return None
    return [row[n:] for row in echelon]


def mat_vec(matrix: Sequence[Sequence[Fraction]], vector: Sequence[Fraction]) -> Vector:
    return [sum((a * b for a, b in zip(row, vector)), Fraction(0)) for row in matrix]
