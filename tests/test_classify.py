"""Constant-height classification and the sampling falsifier."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blowuplab import (
    DomainError,
    LieAlgebra,
    WitnessSearchError,
    abelian,
    change_basis,
    classify_constant_height,
    diagonal_affine,
    heis3,
    height,
    is_diagonal_affine,
    killing_form,
    sample_height_spectrum,
    sl2,
    so3,
)
from blowuplab.linalg import det, is_negative_definite, leading_principal_minors


def test_structural_verdicts():
    verdict = classify_constant_height(so3())
    assert (verdict.kind, verdict.constant_height) == ("so3", 1)

    verdict = classify_constant_height(diagonal_affine(3))
    assert (verdict.kind, verdict.constant_height, verdict.param) == (
        "diagonal_affine",
        0,
        3,
    )

    for n in range(1, 5):
        verdict = classify_constant_height(abelian(n))
        assert (verdict.kind, verdict.constant_height, verdict.param) == (
            "abelian",
            0,
            n,
        )


def test_not_constant_height_witnesses_reverify():
    for L in (sl2(), heis3()):
        verdict = classify_constant_height(L)
        assert verdict.kind == "not_constant_height"
        assert verdict.constant_height is None
        w1, w2 = verdict.witnesses
        h1, h2 = verdict.witness_heights
        assert height(L, w1) == h1
        assert height(L, w2) == h2
        assert h1 != h2
    assert set(classify_constant_height(sl2()).witness_heights) == {0, 1}


def test_sl2_witness_lies_on_a_half_cone():
    verdict = classify_constant_height(sl2())
    low = verdict.witnesses[verdict.witness_heights.index(0)]
    assert low[0] ** 2 + low[1] ** 2 == low[2] ** 2


def test_is_diagonal_affine_fixtures():
    result = is_diagonal_affine(diagonal_affine(2))
    assert result is not None
    generator, ideal = result
    assert generator == [Fraction(1), Fraction(0), Fraction(0)]
    assert len(ideal) == 2

    # generator acting by 3 is normalized to act by 1
    scaled = LieAlgebra(3, {(1, 2): {2: 3}, (1, 3): {3: 3}}, name="scaled")
    generator, _ = is_diagonal_affine(scaled)
    assert generator == [Fraction(1, 3), Fraction(0), Fraction(0)]
    for h in ((0, 1, 0), (0, 0, 1)):
        assert scaled.bracket(generator, h) == [Fraction(v) for v in h]

    assert is_diagonal_affine(heis3()) is None
    assert is_diagonal_affine(abelian(3)) is None
    assert is_diagonal_affine(so3()) is None
    # one-dimensional derived algebra but nilpotent action
    assert is_diagonal_affine(LieAlgebra(2, {})) is None


def test_diagonal_affine_detection_does_not_depend_on_generator_scaling():
    # [X, e_i] = -2 e_i is still the same family
    L = LieAlgebra(4, {(1, k): {k: -2} for k in (2, 3, 4)})
    verdict = classify_constant_height(L)
    assert (verdict.kind, verdict.constant_height, verdict.param) == (
        "diagonal_affine",
        0,
        3,
    )


def test_spectrum_fixtures():
    assert sample_height_spectrum(so3(), 100).heights() == (1,)
    assert sample_height_spectrum(heis3(), 100).heights() == (0, 1)
    assert sample_height_spectrum(abelian(5), 60).heights() == (0,)
    with pytest.raises(DomainError):
        sample_height_spectrum(so3(), 0)


def test_spectrum_witnesses_reverify():
    spectrum = sample_height_spectrum(heis3(), 100)
    for k, xi in spectrum.witnesses.items():
        assert height(heis3(), xi) == k
    assert sum(spectrum.counts.values()) == 100


def test_constant_verdict_agrees_with_spectrum():
    for L in (so3(), abelian(3), diagonal_affine(2)):
        verdict = classify_constant_height(L)
        assert verdict.constant_height is not None
        spectrum = sample_height_spectrum(L, 500)
        assert spectrum.heights() == (verdict.constant_height,)


def test_killing_definiteness_split():
    minors_so3 = leading_principal_minors(killing_form(so3()))
    assert [m < 0 for m in minors_so3] == [True, False, True]
    assert is_negative_definite(killing_form(so3()))
    assert not is_negative_definite(killing_form(sl2()))


def _random_unimodular(rng, n):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-2, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_classification_is_basis_independent(rng):
    cases = [so3(), sl2(), heis3(), diagonal_affine(3), abelian(4)]
    for L in cases:
        baseline = classify_constant_height(L)
        for _ in range(10):
            matrix = _random_unimodular(rng, L.dim)
            assert det(matrix) in (Fraction(1), Fraction(-1))
            conjugated = change_basis(L, matrix)
            verdict = classify_constant_height(conjugated)
            assert verdict.kind == baseline.kind
            assert verdict.constant_height == baseline.constant_height
