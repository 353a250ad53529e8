"""Lifted vector fields, the divisor distribution, orbit/rank identities."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blowuplab import (
    DomainError,
    PolyRing,
    abelian,
    blowup_pullback,
    check_line_orders,
    diagonal_affine,
    hamiltonian_field,
    heis3,
    height,
    lift_verdict,
    linear_poisson,
    orbit_rank_crosscheck,
    sl2,
    so3,
    spinor,
    vanishing_order,
)
from blowuplab.charts import BlowupChart, preferred_chart
from blowuplab.linalg import rref_basis

from conftest import apply_field, as_lie, gen, random_polynomial, random_vector_field
from reference import distribution_at, distribution_rows, restrict_zero


def test_lift_of_scaled_coordinate_field():
    # X = x_n d/dx_n in chart n: x~_n (d_n - sum (x~_k/x~_n) d_k), i.e. the
    # value forced by (lift X)(p* x_j) = p*(X x_j) on every coordinate
    ring = PolyRing(("x1", "x2", "x3"))
    coeffs = [ring.zero(), ring.zero(), ring.parse("x3")]
    bc = BlowupChart(ring, 3)
    lifted = bc.lift_vector_field(coeffs)
    assert lifted == (
        bc.chart_ring.parse("-x~1"),
        bc.chart_ring.parse("-x~2"),
        bc.chart_ring.parse("x~3"),
    )


def test_lift_zero_field():
    ring = PolyRing(("x1", "x2"))
    lifted = BlowupChart(ring, 1).lift_vector_field([ring.zero(), ring.zero()])
    assert not any(lifted)


def test_so3_hamiltonian_lifts_match_displayed_frame():
    pi, scale = linear_poisson(so3())
    assert scale == 1
    bc = BlowupChart(pi.ring, 1)
    lifted = [bc.lift_vector_field(hamiltonian_field(pi, i)) for i in (1, 2, 3)]
    cr = bc.chart_ring
    assert lifted[0] == (
        cr.zero(),
        cr.parse("x~3"),
        cr.parse("-x~2"),
    )
    assert lifted[1] == (
        cr.parse("-x~1*x~3"),
        cr.parse("x~2*x~3"),
        cr.parse("1 + x~3^2"),
    )
    assert lifted[2] == (
        cr.parse("x~1*x~2"),
        cr.parse("-(1 + x~2^2)"),
        cr.parse("-x~2*x~3"),
    )


def test_lift_requires_vanishing_at_origin():
    ring = PolyRing(("x1", "x2"))
    with pytest.raises(DomainError):
        BlowupChart(ring, 1).lift_vector_field([ring.const(1), ring.zero()])


def test_lift_defining_property_on_coordinates(rng):
    # the lift is p-related: (lift X)(p* x_j) = p*(X x_j) for all j
    for _ in range(40):
        m = rng.randint(1, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(1, m + 1)))
        chart = rng.randint(1, m)
        coeffs = random_vector_field(rng, ring)
        bc = BlowupChart(ring, chart)
        lifted = bc.lift_vector_field(coeffs)
        for j in range(1, m + 1):
            lhs = apply_field(lifted, bc.pull_polynomial(ring.variable(j)))
            rhs = bc.pull_polynomial(coeffs[j - 1])
            assert lhs == rhs


def test_lift_defining_property_on_random_functions(rng):
    checked = 0
    while checked < 100:
        m = rng.randint(1, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(1, m + 1)))
        chart = rng.randint(1, m)
        coeffs = random_vector_field(rng, ring)
        f = random_polynomial(rng, ring, max_terms=3, max_degree=2)
        bc = BlowupChart(ring, chart)
        lifted = bc.lift_vector_field(coeffs)
        x_f = apply_field(coeffs, f)
        assert apply_field(lifted, bc.pull_polynomial(f)) == bc.pull_polynomial(x_f)
        checked += 1


def test_lifts_are_divisor_tangent(rng):
    for _ in range(50):
        m = rng.randint(1, 4)
        ring = PolyRing(tuple(f"x{i}" for i in range(1, m + 1)))
        chart = rng.randint(1, m)
        bc = BlowupChart(ring, chart)
        lifted = bc.lift_vector_field(random_vector_field(rng, ring))
        assert restrict_zero(lifted[chart - 1], chart) == bc.chart_ring.zero()


# -- distribution ----------------------------------------------------------------------


def test_distribution_so3_full_divisor_tangent():
    assert distribution_at(so3(), (1, 0, 0)) == 2
    chart, rows = distribution_rows(so3(), (1, 0, 0))
    assert chart == 1
    # spans the divisor tangent directions d/dx~2, d/dx~3
    assert rref_basis(rows) == [
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    for v in ((2, -1, 3), (0, 1, 0), (Fraction(1, 2), 5, -7)):
        assert distribution_at(so3(), v) == 2


def test_distribution_abelian_zero():
    for v in ((1, 0, 0, 0), (1, 2, 3, 4)):
        assert distribution_at(abelian(4), v) == 0


def test_distribution_heis3_rank_varies():
    assert distribution_at(heis3(), (0, 0, 1)) == 2
    assert distribution_at(heis3(), (1, 0, 0)) == 0


def test_distribution_rejects_zero():
    with pytest.raises(DomainError):
        distribution_at(so3(), (0, 0, 0))


def test_distribution_rank_equals_twice_height(rng):
    from blowuplab.sampling import covector_stream

    for L in (so3(), sl2(), heis3(), diagonal_affine(2)):
        stream = covector_stream(L.dim, seed=23)
        for _ in range(30):
            v = next(stream)
            assert distribution_at(L, v) == 2 * height(L, v)


def test_hamiltonian_fields_are_built_once_per_algebra(monkeypatch):
    import blowuplab.blowup_geometry as geometry

    real = geometry.hamiltonian_field
    built = []

    def counted(pi, i):
        built.append(i)
        return real(pi, i)

    monkeypatch.setattr(geometry, "hamiltonian_field", counted)
    L = as_lie(gen.heis(5))
    report = orbit_rank_crosscheck(L, 48)
    assert len({preferred_chart(record.v) for record in report.records}) > 1
    assert sorted(built) == [1, 2, 3, 4, 5]


# -- aggregated crosscheck -----------------------------------------------------------------


def test_orbit_rank_crosscheck_catalog():
    for L in (so3(), abelian(3), diagonal_affine(3)):
        report = orbit_rank_crosscheck(L, samples=60, seed=3)
        assert not report.mismatches
        assert report.constant_height

    report = orbit_rank_crosscheck(sl2(), samples=60, seed=3)
    assert not report.mismatches  # pointwise identities hold
    assert not report.constant_height  # but the height is not constant
    assert report.heights == (0, 1)

    report = orbit_rank_crosscheck(heis3(), samples=60, seed=3)
    assert not report.mismatches
    assert report.heights == (0, 1)


def test_orbit_rank_crosscheck_rejects_bad_samples():
    with pytest.raises(DomainError):
        orbit_rank_crosscheck(so3(), samples=0)


def test_every_sampled_suite_rejects_a_non_positive_sample_count():
    """The spinor route's divisor search rejects 0 and -1 as the per-sample
    suites do, instead of skipping the search or failing inside islice."""
    cf = blowup_pullback(spinor(*linear_poisson(sl2())), 1)
    for samples in (0, -1):
        for run in (
            lambda: vanishing_order(cf, samples=samples),
            lambda: lift_verdict(sl2(), samples=samples),
            lambda: orbit_rank_crosscheck(sl2(), samples=samples),
            lambda: check_line_orders(sl2(), samples=samples),
        ):
            with pytest.raises(DomainError, match="samples must be positive"):
                run()
