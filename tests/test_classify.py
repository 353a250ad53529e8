"""Constant-height classification and the sampling falsifier."""

from __future__ import annotations

import itertools
import random
import time
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
    lift_verdict,
    realroots,
    sl2,
    so3,
)
import blowuplab.classify as classify_mod
from blowuplab.classify import RealRootWitness, verify_real_root_witness
from blowuplab.linalg import is_negative_definite
from conftest import as_lie, gen, seeded_conjugate
from reference import det

# the real form of sl2 whose height-drop cone xi1^2 + xi2^2 = 3 xi3^2 has
# real points but no rational ones
ANISOTROPIC_SL2 = as_lie(gen.anisotropic_sl2())
# the benchmark's sl2_late: a rational conjugate of sl2 whose nearest rational
# drop point is (-2, 5, -8) in the dual basis, far down a small-integer sweep
LATE_SL2 = as_lie(gen.late_witness_sl2())


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
    for L in (sl2(), heis3(), ANISOTROPIC_SL2):
        verdict = classify_constant_height(L)
        assert verdict.kind == "not_constant_height"
        assert verdict.constant_height is None
        w1, w2 = verdict.witnesses
        h1, h2 = verdict.witness_heights
        if isinstance(w1, RealRootWitness):
            assert L is ANISOTROPIC_SL2
            assert w1.height == h1
            assert verify_real_root_witness(L, w1, h2)
        else:
            assert height(L, w1) == h1
        assert height(L, w2) == h2
        assert h1 != h2
    assert set(classify_constant_height(sl2()).witness_heights) == {0, 1}


def _real_root_certificate(L):
    verdict = classify_constant_height(L)
    low, high = verdict.witnesses
    assert isinstance(low, RealRootWitness)
    assert verdict.witness_heights == (0, 1) and height(L, high) == 1
    return low


@pytest.mark.parametrize("L", [ANISOTROPIC_SL2, seeded_conjugate(sl2(), 3)])
def test_real_root_certificates_verify_and_tampering_is_rejected(L):
    w = _real_root_certificate(L)
    assert verify_real_root_witness(L, w, 1)
    # the drop point really lies on the isotropic cone of the dual Killing
    # form: g divides the chain coefficient, a quadratic in t
    assert len(realroots.squarefree(w.g)) >= 2
    lo, hi = w.interval
    bumped = (w.g[0] + 1,) + w.g[1:]
    tampered = [
        w._replace(g=bumped),
        w._replace(g=realroots.trim([-hi, 1])),  # t - hi: one root, but no divisor
        w._replace(interval=(hi + 10**6, hi + 2 * 10**6)),  # no root
        w._replace(interval=(lo - 10**6, hi + 10**6)),  # both roots
        w._replace(base=(w.base[0] + 1,) + w.base[1:]),
        w._replace(direction=w.base),
        w._replace(height=1),
    ]
    for bad in tampered:
        assert not verify_real_root_witness(L, bad, 1), bad


def test_every_form_of_sl2_drops_on_the_first_slice_line(monkeypatch):
    # the direction of opposite Killing sign makes the first line cross the
    # isotropic cone, even where nearly every rational vector has one sign
    # (the negative cone of this conjugate's Killing form is very thin)
    import blowuplab.classify as classify_mod

    monkeypatch.setattr(classify_mod, "_SLICE_LINES", 1)
    thin = change_basis(sl2(), [[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 2)], [0, 0, Fraction(1, 40)]])
    for L in [ANISOTROPIC_SL2, LATE_SL2, thin] + [seeded_conjugate(sl2(), s) for s in range(20)]:
        assert classify_mod._slice_witness(L, 1, 1729) is not None


def test_forms_of_sl2_do_not_lift_with_witness_heights_0_and_1():
    conjugates = [seeded_conjugate(sl2(), seed) for seed in range(20)]
    for L in [ANISOTROPIC_SL2, LATE_SL2] + conjugates:
        start = time.perf_counter()
        verdict = lift_verdict(L, samples=10)
        assert time.perf_counter() - start < 1.0
        assert verdict.kind == "does_not_lift"
        assert set(verdict.classification.witness_heights) == {0, 1}


def test_so5_is_decided_by_the_first_draw_without_the_slice(monkeypatch):
    # every structural candidate of so(5) has height 3, below the generic 4,
    # so a slice search for a drop below 3 finds nothing; the first seeded
    # draw, taken before the slice, already gives the pair (3, 4)
    import blowuplab.classify as classify_mod

    def fail(*args):
        raise AssertionError("the slice phase ran")

    monkeypatch.setattr(classify_mod, "_slice_witness", fail)
    verdict = classify_constant_height(as_lie(gen.so(5)))
    assert verdict.kind == "not_constant_height"
    assert verdict.witness_heights == (3, 4)


def test_rational_root_rejects_a_root_free_residue_without_bisecting(monkeypatch):
    # 7^60 t^2 - 2 has two irrational roots 1/7^30 apart around +-sqrt(2)/7^30;
    # bisecting to width 1/lc^2 would take some 340 evaluations, but mod 3 it
    # is t^2 + 1, which has no root
    p = (Fraction(-2), Fraction(0), Fraction(7**60))
    intervals = realroots.isolating_intervals(p)
    assert len(intervals) == 2
    calls = []
    scaled_value = realroots._scaled_value
    monkeypatch.setattr(
        realroots, "_scaled_value", lambda q, x: calls.append(x) or scaled_value(q, x)
    )
    assert [realroots.rational_root(p, *interval) for interval in intervals] == [None, None]
    assert len(calls) <= 2


def test_division_and_gcd_on_integer_tuples_are_exact():
    # t^2 + 1 = (3t + 1)(t/3 - 1/9) + 10/9; a float 1/3 would round
    quot, rem = realroots.divide((1, 0, 1), (1, 3))
    assert (quot, rem) == ((Fraction(-1, 9), Fraction(1, 3)), (Fraction(10, 9),))
    assert realroots.gcd((1, 4, 3), (1, 3)) == (Fraction(1, 3), 1)
    assert realroots.squarefree((1, 6, 9)) == (Fraction(1, 3), 1)


def test_sl2_witness_lies_on_a_half_cone():
    verdict = classify_constant_height(sl2())
    low = verdict.witnesses[verdict.witness_heights.index(0)]
    assert low[0] ** 2 + low[1] ** 2 == low[2] ** 2


def test_is_diagonal_affine_fixtures():
    assert is_diagonal_affine(diagonal_affine(2)) is True
    # generator acting by 3 rather than 1
    scaled = LieAlgebra(3, {(1, 2): {2: 3}, (1, 3): {3: 3}}, name="scaled")
    assert is_diagonal_affine(scaled) is True

    assert is_diagonal_affine(heis3()) is False
    assert is_diagonal_affine(abelian(3)) is False
    assert is_diagonal_affine(so3()) is False
    # one-dimensional derived algebra but nilpotent action
    assert is_diagonal_affine(LieAlgebra(2, {})) is False
    # a line has no pair to read a linear form off
    assert is_diagonal_affine(LieAlgebra(1, {})) is False


def test_the_sampled_fallback_finds_the_witness_a_first_draw_on_the_drop_locus_misses(
    monkeypatch,
):
    """On heis3, xi has height 1 exactly when xi_3 != 0.  With (1, 0, 0) the
    only structural candidate and a first random draw with xi_3 = 0, every
    height seen is 0, so the slice phase has no height to drop from and is
    skipped; the sampled draws after the first give the height-1 witness."""
    drawn = []
    real_draws = classify_mod.random_covectors

    def draws(n, seed):
        first = (Fraction(2), Fraction(-1), Fraction(0))
        for xi in itertools.chain([first], real_draws(n, seed)):
            drawn.append(xi)
            yield xi

    def no_slice(L, top, seed):
        raise AssertionError("the slice phase must not run")

    one = (Fraction(1), Fraction(0), Fraction(0))
    monkeypatch.setattr(classify_mod, "_structural_candidates", lambda L: iter([one]))
    monkeypatch.setattr(classify_mod, "random_covectors", draws)
    monkeypatch.setattr(classify_mod, "_slice_witness", no_slice)
    verdict = classify_constant_height(heis3())
    assert verdict.kind == "not_constant_height"
    assert verdict.witness_heights == (0, 1)
    low, high = verdict.witnesses
    assert low == one
    assert high in drawn[1:] and high[2] != 0


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
    assert tuple(sample_height_spectrum(so3(), 100).counts) == (1,)
    assert tuple(sample_height_spectrum(heis3(), 100).counts) == (0, 1)
    assert tuple(sample_height_spectrum(abelian(5), 60).counts) == (0,)
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
        assert tuple(spectrum.counts) == (verdict.constant_height,)


def test_killing_definiteness_split():
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
