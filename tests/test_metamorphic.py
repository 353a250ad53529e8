"""Metamorphic checks: a verdict is a property of the algebra, not of its
basis or of the scale of its bracket, and it follows the algebra's structure.

Each algebra is rewritten in seeded rational bases (entries p/q with
|p|, q <= 30) and must keep its classification (kind and constant height)
and its lift verdict; a non-constant verdict must come with witnesses of two
different heights.  For sl2 and sl3 these bases move the height-drop locus
off every small rational point, so the verdict rests on real-root witnesses.
For e(3) and sl2 x| sl2_ab they hide it from every seed; the drop lies on
the annihilator of the Killing form's kernel, a rational subspace.

Scaling every bracket by c != 0 gives an isomorphic algebra (b -> b / c),
so the verdict stays.  R x| R^n with the generator acting as lambda * id,
lambda != 0, is the diagonal-affine family and lifts as Poisson.  A direct
sum with R lifts only if the other summand is abelian: otherwise some
covector has a positive height and the covector dual to the R factor has
height 0.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

from blowuplab import (
    LieAlgebra,
    abelian,
    check_line_orders,
    classify_constant_height,
    diagonal_affine,
    heis3,
    lift_verdict,
    sl2,
    so3,
)
from blowuplab.classify import RealRootWitness, verify_real_root_witness
from conftest import adjoint_extension, as_lie, gen, seeded_conjugate


def _summary(verdict):
    if verdict.kind == "not_constant_height":
        low, high = verdict.witness_heights
        assert low < high
    return verdict.kind, verdict.constant_height


@pytest.mark.parametrize("build", [so3, sl2, heis3, lambda: diagonal_affine(3)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verdict_is_invariant_under_rational_change_of_basis(build, seed):
    L = build()
    conjugate = seeded_conjugate(L, seed)
    assert _summary(classify_constant_height(conjugate)) == _summary(classify_constant_height(L))
    assert lift_verdict(conjugate, samples=5).kind == lift_verdict(L, samples=5).kind


def test_sl3_verdict_is_invariant_under_rational_change_of_basis():
    L = seeded_conjugate(as_lie(gen.sl(3)), 1)
    start = time.perf_counter()
    verdict = classify_constant_height(L)
    assert time.perf_counter() - start < 5.0
    assert _summary(verdict) == _summary(classify_constant_height(as_lie(gen.sl(3))))
    # a generic covector of sl3 has height 3; the drop on a Cartan slice is
    # to a non-regular element, of height 2, and no other height passes
    low = verdict.witnesses[0]
    assert isinstance(low, RealRootWitness) and verdict.witness_heights == (2, 3)
    assert verify_real_root_witness(L, low, 3)
    assert not verify_real_root_witness(L, low._replace(height=1), 3)


@pytest.mark.parametrize("base", [so3, sl2], ids=["e3", "sl2_x_sl2_ab"])
@pytest.mark.parametrize("seed", [1, 2])
def test_semidirect_verdict_is_invariant_under_rational_change_of_basis(base, seed):
    L = adjoint_extension(base())
    conjugate = seeded_conjugate(L, seed)
    start = time.perf_counter()
    verdict = classify_constant_height(conjugate)
    assert time.perf_counter() - start < 2.0
    assert _summary(verdict) == _summary(classify_constant_height(L))
    assert verdict.witness_heights == (1, 2)


def test_gl3_line_orders_hold_after_rational_change_of_basis():
    # on a dense conjugate every sampled line's t-order is dim - 1 - height
    assert not check_line_orders(seeded_conjugate(as_lie(gen.gl(3)), 1), samples=48).mismatches


def _table(L: LieAlgebra, scale=1) -> dict:
    """The brackets of L times scale, as a table for `LieAlgebra`."""
    table = {}
    for i in range(1, L.dim + 1):
        for j in range(i + 1, L.dim + 1):
            vec = L.bracket_basis(i, j)
            if any(vec):
                table[(i, j)] = {k: scale * v for k, v in enumerate(vec, start=1) if v}
    return table


ALGEBRAS = [so3, sl2, heis3, lambda: diagonal_affine(3)]


@pytest.mark.parametrize("build", ALGEBRAS, ids=["so3", "sl2", "heis3", "diagonal_affine3"])
@pytest.mark.parametrize("c", [Fraction(3), Fraction(-1, 2)], ids=["3", "-1/2"])
def test_verdict_is_invariant_under_scaling_the_bracket(build, c):
    L = build()
    scaled = LieAlgebra(L.dim, _table(L, c))
    assert _summary(classify_constant_height(scaled)) == _summary(classify_constant_height(L))
    assert lift_verdict(scaled, samples=5).kind == lift_verdict(L, samples=5).kind


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(-1, 3)], ids=["2", "-1/3"])
@pytest.mark.parametrize("n", [2, 3])
def test_scalar_action_on_an_abelian_ideal_is_diagonal_affine(lam, n):
    L = LieAlgebra(n + 1, {(1, j): {j: lam} for j in range(2, n + 2)})
    verdict = classify_constant_height(L)
    assert (verdict.kind, verdict.constant_height, verdict.param) == ("diagonal_affine", 0, n)
    assert lift_verdict(L, samples=5).kind == "lifts_as_poisson"


@pytest.mark.parametrize(
    "build, kind",
    [
        (so3, "does_not_lift"),
        (sl2, "does_not_lift"),
        (heis3, "does_not_lift"),
        (lambda: diagonal_affine(2), "does_not_lift"),
        (lambda: abelian(3), "lifts_as_poisson"),
    ],
    ids=["so3", "sl2", "heis3", "diagonal_affine2", "abelian3"],
)
def test_direct_sum_with_a_line_lifts_only_if_abelian(build, kind):
    L = build()
    summed = LieAlgebra(L.dim + 1, _table(L))
    verdict = lift_verdict(summed, samples=5)
    assert verdict.kind == kind
    if kind == "does_not_lift":
        assert verdict.classification.witness_heights[0] == 0
