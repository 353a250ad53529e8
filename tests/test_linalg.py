"""Exact linear algebra against an independent sympy oracle."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from blowuplab import killing_form, sl2, so3
from blowuplab.linalg import (
    integer_multiple,
    integer_rows,
    inverse,
    is_negative_definite,
    primitive,
    rank,
    rref_basis,
)
from reference import det, in_row_space


def _random_matrix(rng, rows, cols, singularish=False):
    m = [
        [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(cols)]
        for _ in range(rows)
    ]
    if singularish and rows > 1:
        # force a dependent row to exercise rank deficiency
        m[-1] = [2 * x for x in m[0]]
    return m


def _sympy_matrix(m):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m]
    )


def test_rank_matches_sympy(rng):
    for trial in range(60):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, singularish=trial % 3 == 0)
        assert rank(integer_rows(m)) == _sympy_matrix(m).rank()


def _random_symmetric(rng, n, trial):
    """A symmetric n x n rational matrix: -B^T B (negative semidefinite) for
    half the trials, a free symmetric matrix for the rest, and for every
    third trial a zero leading block, so elimination must swap rows."""
    if trial % 2:
        b = _random_matrix(rng, n, n, singularish=trial % 10 == 1)
        m = [[-sum(b[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    else:
        m = _random_matrix(rng, n, n)
        m = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
    if trial % 3 == 0 and n > 1:
        k = rng.randint(1, n - 1)
        for i in range(k):
            for j in range(k):
                m[i][j] = Fraction(0)
    return m


def test_negative_definite_matches_sympy(rng):
    outcomes = []
    for trial in range(240):
        m = _random_symmetric(rng, rng.randint(1, 5), trial)
        expected = _sympy_matrix(m).is_negative_definite
        assert is_negative_definite(integer_rows(m)) == expected
        outcomes.append(expected)
    assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40
    # leading minors 0, 0, 0, 36: the elimination swaps rows twice and its
    # pivots alternate in sign, so only "no swap" rejects it
    m = [[0, 0, -2, 2], [0, 0, -3, 0], [-2, -3, 2, -2], [2, 0, -2, 2]]
    assert [det([row[:k] for row in m[:k]]) for k in range(1, 5)] == [0, 0, 0, 36]
    assert not is_negative_definite(m)


def test_leading_minors_and_definiteness():
    b_so3 = killing_form(so3())
    minors = [det([row[:k] for row in b_so3[:k]]) for k in range(1, 4)]
    assert minors == [Fraction(-2), Fraction(4), Fraction(-8)]
    assert killing_form(so3(), scaled=True) == b_so3
    assert is_negative_definite(killing_form(so3(), scaled=True))
    assert not is_negative_definite(killing_form(sl2(), scaled=True))


def test_rref_basis_spans_and_reduces(rng):
    for _ in range(30):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = rref_basis(m)
        assert len(basis) == rank(integer_rows(m))
        for row in m:
            assert in_row_space(basis, row)
        for row in basis:
            assert in_row_space(m, row)


def test_in_row_space(rng):
    rows = [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(1), Fraction(-1)]]
    assert in_row_space(rows, [Fraction(2), Fraction(3), Fraction(1)])
    assert not in_row_space(rows, [Fraction(0), Fraction(0), Fraction(1)])


def test_inverse(rng):
    for _ in range(25):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        inv = inverse(m)
        if _sympy_matrix(m).det() == 0:
            assert inv is None
            continue
        assert inv is not None
        prod = [
            [sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)
        ]


ENTRIES = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=36),
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(ENTRIES, min_size=1, max_size=8))
def test_integer_multiple_and_primitive_on_mixed_vectors(values):
    scale, ints = integer_multiple(values)
    denominators = [Fraction(v).denominator for v in values]
    assert scale == reduce(lambda a, b: a * b // gcd(a, b), denominators)
    assert all(type(v) is int for v in ints)
    assert ints == [scale * v for v in values]
    if not any(values):
        return
    prim = primitive(values)
    assert all(type(v) is int for v in prim)
    assert gcd(*prim) == 1
    k = next(i for i, v in enumerate(values) if v)
    ratio = Fraction(prim[k]) / values[k]
    assert ratio > 0
    assert list(prim) == [ratio * v for v in values]
