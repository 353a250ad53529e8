"""Lie algebra core: Jacobi, the differential, heights, orbits, Killing form."""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy

from blowuplab import (
    DomainError,
    ElementType,
    GradedForm,
    JacobiError,
    LieAlgebra,
    PolyRing,
    RATIONALS,
    StructureError,
    abelian,
    ce_differential,
    change_basis,
    covector_form,
    derived_algebra,
    diagonal_affine,
    heis3,
    height,
    height_report,
    jacobi_check,
    killing_form,
    sl2,
    so3,
)
from blowuplab.sampling import covector_stream

from conftest import nonzero_rational
from reference import rational_table, reference_jacobi_check, term


def theta(dim, *indices):
    return term(GradedForm, dim, indices)


# -- construction and Jacobi ---------------------------------------------------


def test_antisymmetry_enforced_eagerly():
    with pytest.raises(StructureError):
        LieAlgebra(2, {(1, 1): {2: 1}})
    with pytest.raises(StructureError):
        LieAlgebra(3, {(1, 2): {3: 1}, (2, 1): {3: 1}})
    # a bracket value must be a {target: value} mapping
    with pytest.raises(StructureError):
        LieAlgebra(3, {(1, 2): [0, 0, 1]})
    # consistent duplicate halves are accepted
    L = LieAlgebra(3, {(1, 2): {3: 1}, (2, 1): {3: -1}})
    assert L.bracket_basis(2, 1) == [0, 0, -1]


@pytest.mark.parametrize("bad", [0.1, "1/2", Decimal("0.5")], ids=repr)
def test_inexact_values_rejected(bad):
    """Structure constants, bracket arguments, basis changes and covectors
    are exact: a float, a string or a Decimal raises a StructureError that
    names the value, instead of being read as a nearby rational."""
    L = so3()
    unit = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for build in (
        lambda: LieAlgebra(3, {(1, 2): {3: bad}}),
        lambda: L.bracket([bad, 0, 0], [0, 1, 0]),
        lambda: L.bracket([0, 1, 0], [bad, 0, 0]),
        lambda: change_basis(L, [[bad, 0, 0]] + unit[1:]),
        lambda: height(L, [bad, 1, 0]),
    ):
        with pytest.raises(StructureError, match="cannot coerce") as info:
            build()
        assert repr(bad) in str(info.value)


def test_exact_values_accepted():
    """ints and Fractions give the same algebra, brackets and basis change."""
    ints = LieAlgebra(3, {(1, 2): {3: 2}, (2, 3): {1: -1}})
    fracs = LieAlgebra(3, {(1, 2): {3: Fraction(4, 2)}, (2, 3): {1: Fraction(-1)}})
    table = {(1, 2): (0, 0, 2), (2, 3): (-1, 0, 0)}
    assert (ints._table, ints._scale) == (fracs._table, fracs._scale) == (table, 1)
    assert all(type(v) is int for vec in fracs._table.values() for v in vec)
    # rational constants are kept as their multiple by the common denominator
    halves = LieAlgebra(3, {(1, 2): {3: Fraction(1, 2)}, (2, 3): {1: Fraction(-1, 3)}})
    assert (halves._table, halves._scale) == ({(1, 2): (0, 0, 3), (2, 3): (-2, 0, 0)}, 6)
    assert halves.bracket_basis(3, 2) == [Fraction(1, 3), 0, 0]
    L = so3()
    assert L.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    assert L.bracket([Fraction(1), 0, 0], [0, Fraction(1, 1), 0]) == [0, 0, 1]
    matrix = [[1, 1, 0], [0, 1, 0], [0, 0, 2]]
    exact = [[Fraction(v) for v in row] for row in matrix]
    by_ints, by_fractions = change_basis(L, matrix), change_basis(L, exact)
    assert (by_ints._table, by_ints._scale) == (by_fractions._table, by_fractions._scale)
    assert change_basis(L, matrix).bracket_basis(1, 2) == [0, 0, Fraction(1, 2)]
    assert height(L, [1, 2, 0]) == height(L, [Fraction(1), Fraction(4, 2), 0]) == 1


def test_jacobi_catalog_entries_pass():
    assert jacobi_check(so3()) == []
    assert jacobi_check(abelian(4)) == []
    assert jacobi_check(heis3()) == []
    assert jacobi_check(sl2()) == []
    assert jacobi_check(diagonal_affine(4)) == []


def test_jacobi_violation_named_with_defect():
    # so(3) table with [b2, b3] retargeted from b1 to b2:
    # the cyclic sum on (1,2,3) collapses to [b2, b1] = -b3
    broken = LieAlgebra(3, {(1, 2): {3: 1}, (2, 3): {2: 1}, (1, 3): {2: -1}})
    violations = jacobi_check(broken)
    assert len(violations) == 1
    triple, defect = violations[0]
    assert triple == (1, 2, 3)
    assert defect == (Fraction(0), Fraction(0), Fraction(-1))
    with pytest.raises(JacobiError):
        broken.validate()


def test_scaled_so3_table_still_satisfies_jacobi():
    # rescaling one antisymmetric pair of a diagonal 3-dim table keeps the
    # Jacobiator identically zero: the result is an honest Lie algebra
    scaled = LieAlgebra(3, {(1, 2): {3: 2}, (2, 3): {1: 1}, (1, 3): {2: -1}})
    assert jacobi_check(scaled) == []


# -- Chevalley-Eilenberg differential --------------------------------------------


def test_differential_on_so3_generator():
    # [b2, b3] = b1 and (d xi)(b_i, b_j) = -xi([b_i, b_j]) give d theta1 = -theta23
    L = so3()
    assert ce_differential(L, theta(3, 1)) == -theta(3, 2, 3)


def test_differential_abelian_vanishes(rng):
    L = abelian(5)
    xi = covector_form(L, [nonzero_rational(rng) for _ in range(5)])
    assert ce_differential(L, xi).is_zero()


def test_generic_so3_covector_pins_the_sign():
    L = so3()
    ring = PolyRing(("xi1", "xi2", "xi3"))
    xi = covector_form(L, [ring.variable(i) for i in (1, 2, 3)], ring)
    wedge_product = xi.wedge(ce_differential(L, xi))
    expected = GradedForm(
        3, ring, {(1, 2, 3): ring.parse("-(xi1^2 + xi2^2 + xi3^2)")}
    )
    assert wedge_product == expected


def test_generic_sl2_covector_matches_cone_polynomial():
    L = sl2()
    ring = PolyRing(("xi1", "xi2", "xi3"))
    xi = covector_form(L, [ring.variable(i) for i in (1, 2, 3)], ring)
    wedge_product = xi.wedge(ce_differential(L, xi))
    expected = GradedForm(3, ring, {(1, 2, 3): ring.parse("-xi1^2 - xi2^2 + xi3^2")})
    assert wedge_product == expected


def _random_table_perturbation(rng, base: LieAlgebra) -> LieAlgebra:
    table = {pair: dict(enumerate(vec, start=1)) for pair, vec in rational_table(base).items()}
    i = rng.randint(1, base.dim - 1)
    j = rng.randint(i + 1, base.dim)
    k = rng.randint(1, base.dim)
    entry = table.setdefault((i, j), {})
    entry[k] = entry.get(k, Fraction(0)) + Fraction(rng.randint(1, 3))
    return LieAlgebra(base.dim, table)


def test_differential_squares_to_zero_iff_jacobi(rng):
    bases = [so3(), sl2(), heis3(), abelian(4), diagonal_affine(3)]
    tables = list(bases)
    for _ in range(20):
        tables.append(_random_table_perturbation(rng, rng.choice(bases)))
    # include one guaranteed violator so both branches are exercised
    tables.append(LieAlgebra(3, {(1, 2): {3: 1}, (2, 3): {2: 1}, (1, 3): {2: -1}}))
    saw_violation = False
    saw_valid = False
    for L in tables:
        d_squared_zero = all(
            ce_differential(L, ce_differential(L, theta(L.dim, k))).is_zero()
            for k in range(1, L.dim + 1)
        )
        valid = not reference_jacobi_check(L)
        assert d_squared_zero == valid
        saw_violation |= not valid
        saw_valid |= valid
    assert saw_violation and saw_valid


# -- heights ------------------------------------------------------------------------


def test_height_fixtures():
    assert height(so3(), (1, 0, 0)) == 1
    assert height(so3(), (Fraction(2), Fraction(-1, 3), Fraction(5))) == 1
    assert height(sl2(), (3, 4, 5)) == 0  # on the cone: 9 + 16 = 25
    assert height(sl2(), (1, 0, 0)) == 1
    assert height(heis3(), (0, 0, 1)) == 1
    assert height(heis3(), (1, 0, 0)) == 0
    assert height(abelian(4), (1, 2, 3, 4)) == 0


def test_height_rejects_zero_covector():
    with pytest.raises(DomainError):
        height(so3(), (0, 0, 0))
    with pytest.raises(DomainError):
        height_report(so3(), (0, 0, 0))


def test_height_scale_invariance(rng):
    algebras = [so3(), sl2(), heis3(), diagonal_affine(3), abelian(4)]
    checked = 0
    while checked < 120:
        L = rng.choice(algebras)
        stream = covector_stream(L.dim, seed=rng.randint(0, 10**6))
        xi = next(stream)
        c = nonzero_rational(rng)
        scaled = tuple(c * v for v in xi)
        assert height(L, scaled) == height(L, xi)
        assert height_report(L, scaled).element_type == height_report(L, xi).element_type
        checked += 1


def test_element_type_fixtures():
    assert height_report(so3(), (1, 2, 3)).element_type is ElementType.ONE
    assert height_report(sl2(), (3, 4, 5)).element_type is ElementType.TWO
    assert height_report(abelian(3), (1, 0, 0)).element_type is ElementType.ONE


def test_orbit_dimension_fixtures():
    assert height_report(so3(), (1, 1, 1)).orbit_dim == 2
    assert height_report(sl2(), (3, 4, 5)).orbit_dim == 2
    assert height_report(sl2(), (1, 0, 0)).orbit_dim == 2
    assert height_report(abelian(5), (1, 0, 0, 0, 0)).orbit_dim == 0


def test_radial_fixtures():
    assert not height_report(so3(), (1, 2, 3)).radial_in_orbit
    assert height_report(sl2(), (3, 4, 5)).radial_in_orbit
    L = diagonal_affine(3)
    for j in range(2, 5):
        xi = tuple(Fraction(int(i == j)) for i in range(1, 5))
        assert height_report(L, xi).radial_in_orbit
    assert not height_report(L, (1, 0, 0, 0)).radial_in_orbit


def test_rank_oracle_against_sympy(rng):
    # independent check of the skew-pairing rank used inside height()
    algebras = [so3(), sl2(), heis3(), diagonal_affine(3)]
    for L in algebras:
        stream = covector_stream(L.dim, seed=7)
        for _ in range(25):
            xi = next(stream)
            rows = []
            for i in range(1, L.dim + 1):
                row = []
                for j in range(1, L.dim + 1):
                    w = L.bracket_basis(i, j)
                    row.append(-sum(xi[m] * w[m] for m in range(L.dim)))
                rows.append(row)
            m = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
            )
            assert height_report(L, xi).orbit_dim == m.rank()


# -- aggregate report ------------------------------------------------------------------


def test_height_report_fixtures():
    report = height_report(so3(), (1, 0, 0))
    assert (report.height, report.element_type, report.cartan_class) == (
        1,
        ElementType.ONE,
        3,
    )
    assert (report.orbit_dim, report.radial_in_orbit) == (2, False)

    report = height_report(sl2(), (3, 4, 5))
    assert (report.height, report.element_type, report.cartan_class) == (
        0,
        ElementType.TWO,
        2,
    )
    assert (report.orbit_dim, report.radial_in_orbit) == (2, True)

    report = height_report(abelian(4), (1, 2, 0, 0))
    assert (report.height, report.element_type, report.cartan_class) == (
        0,
        ElementType.ONE,
        1,
    )
    assert (report.orbit_dim, report.radial_in_orbit) == (0, False)


def test_height_report_identities_sampled():
    algebras = [so3(), sl2(), heis3(), diagonal_affine(3), abelian(4)]
    for L in algebras:
        stream = covector_stream(L.dim, seed=11)
        for _ in range(200):
            xi = next(stream)
            report = height_report(L, xi)  # raises on any identity violation
            assert report.cartan_class == 2 * report.height + int(report.element_type)
            expected = 2 * report.height + (2 if report.element_type is ElementType.TWO else 0)
            assert report.orbit_dim == expected
            assert report.radial_in_orbit == (report.element_type is ElementType.TWO)


def test_cartan_class_direct_definition():
    # class is odd exactly when (d xi)^(height+1) = 0
    assert height_report(so3(), (1, 0, 0)).cartan_class == 3
    assert height_report(sl2(), (3, 4, 5)).cartan_class == 2
    assert height_report(heis3(), (0, 0, 1)).cartan_class == 3
    assert height_report(heis3(), (1, 0, 0)).cartan_class == 1
    assert height_report(diagonal_affine(2), (0, 1, 0)).cartan_class == 2


# -- classical invariants ------------------------------------------------------------


def test_killing_form_fixtures():
    minus_two_identity = [
        [Fraction(-2 * int(i == j)) for j in range(3)] for i in range(3)
    ]
    assert killing_form(so3()) == minus_two_identity
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    assert killing_form(abelian(3)) == zero
    # heis3: every ad image lies in the centre, so composites vanish
    assert killing_form(heis3()) == zero
    assert killing_form(sl2()) == [
        [Fraction(2), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(-2)],
    ]


def test_derived_algebra_fixtures():
    assert derived_algebra(abelian(4)) == []
    full = derived_algebra(so3())
    assert len(full) == 3
    L = diagonal_affine(3)
    ideal = derived_algebra(L)
    assert ideal == [
        [Fraction(int(j == i)) for j in range(4)] for i in range(1, 4)
    ]


def test_change_basis_preserves_jacobi_and_killing_signature(rng):
    L = so3()
    matrix = [[Fraction(1), Fraction(2), Fraction(0)],
              [Fraction(0), Fraction(1), Fraction(1)],
              [Fraction(1), Fraction(0), Fraction(1)]]
    conj = change_basis(L, matrix)
    assert jacobi_check(conj) == []
    from blowuplab.linalg import is_negative_definite

    assert is_negative_definite(killing_form(conj))
