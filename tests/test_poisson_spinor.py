"""Spinors, blowup pullbacks, vanishing orders, line restrictions, verdicts."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from blowuplab import (
    ChartForm,
    DomainError,
    GradedForm,
    GradedVector,
    PolyRing,
    RATIONALS,
    StructureError,
    abelian,
    blowup_pullback,
    check_line_orders,
    diagonal_affine,
    heis3,
    height,
    lift_verdict,
    linear_poisson,
    scaled_so3_bundle,
    sl2,
    so3,
    spinor,
    vanishing_order,
)
from blowuplab.charts import BlowupChart, preferred_chart
from blowuplab.liealg import change_basis
from blowuplab.model_io import SCALED_SO3_BLOWN, SCALED_SO3_RING
from blowuplab.sampling import covector_stream

from conftest import random_polynomial
from reference import diff, evaluate, line_order, perturbed_orders, volume_form


# -- linear Poisson bivector ----------------------------------------------------


def test_linear_poisson_fixtures():
    assert linear_poisson(abelian(4))[0].is_zero()

    pi, scale = linear_poisson(so3())
    assert scale == 1
    ring = pi.ring
    assert isinstance(pi, GradedVector) and {len(i) for i, _ in pi.ordered_terms()} == {2}
    assert pi.coefficient((1, 2)) == ring.parse("x3")
    assert pi.coefficient((2, 3)) == ring.parse("x1")
    assert pi.coefficient((3, 1)) == ring.parse("x2")

    pi_h = linear_poisson(heis3())[0]
    assert pi_h.ordered_terms() == [((1, 2), pi_h.ring.parse("x3"))]


def _poisson_bracket(pi: GradedVector, f, g):
    """{f, g} = sum_{i<j} pi_ij (d_i f d_j g - d_j f d_i g): independent oracle."""
    out = pi.ring.zero()
    for (i, j), coeff in pi.ordered_terms():
        out = out + coeff * (diff(f, i) * diff(g, j) - diff(f, j) * diff(g, i))
    return out


def test_linear_poisson_reproduces_bracket():
    for L in (so3(), sl2(), heis3(), diagonal_affine(3)):
        pi, scale = linear_poisson(L)
        ring = pi.ring
        for i in range(1, L.dim + 1):
            for j in range(1, L.dim + 1):
                expected = ring.zero()
                for k, value in enumerate(L.bracket_basis(i, j), start=1):
                    if value:
                        expected = expected + ring.variable(k) * value
                got = _poisson_bracket(pi, ring.variable(i), ring.variable(j))
                assert got == expected * scale


# -- spinor ------------------------------------------------------------------------


def test_spinor_fixtures():
    pi, scale = linear_poisson(so3())
    ring = pi.ring
    phi = spinor(pi, scale)
    expected = GradedForm(
        3,
        ring,
        {
            (1, 2, 3): 1,
            (1,): ring.parse("x1"),
            (2,): ring.parse("x2"),
            (3,): ring.parse("x3"),
        },
    )
    assert phi == expected

    assert spinor(*linear_poisson(abelian(3))) == volume_form(
        linear_poisson(abelian(3))[0].ring
    )

    pi_h = linear_poisson(heis3())[0]
    phi_h = spinor(pi_h)
    assert phi_h == GradedForm(
        3, pi_h.ring, {(1, 2, 3): 1, (3,): pi_h.ring.parse("x3")}
    )


def test_spinor_rejects_non_bivector():
    ring = linear_poisson(so3())[0].ring
    mixed = GradedVector(3, ring, {(1, 2): ring.parse("x3"), (1,): ring.parse("x1")})
    with pytest.raises(DomainError):
        spinor(mixed)
    # the input itself is checked: a bivector over a polynomial ring with one
    # variable per dimension
    with pytest.raises(StructureError):
        spinor(volume_form(ring))
    with pytest.raises(StructureError):
        spinor(GradedVector(3, RATIONALS, {(1, 2): 1}))
    with pytest.raises(StructureError):
        spinor(GradedVector(2, ring, {(1, 2): ring.parse("x3")}))


# -- blowup pullback ------------------------------------------------------------------


def test_pullback_of_coordinate_one_form():
    ring = PolyRing(("x1", "x2", "x3"))
    dx2 = GradedForm(3, ring, {(2,): 1})
    cf = blowup_pullback(dx2, 1)
    cr = cf.ring
    assert cf.form == GradedForm(
        3, cr, {(2,): cr.parse("x~1"), (1,): cr.parse("x~2")}
    )


def test_pullback_so3_spinor_chart1_exact():
    phi = spinor(*linear_poisson(so3()))
    cf = blowup_pullback(phi, 1)
    cr = cf.ring
    expected = GradedForm(
        3,
        cr,
        {
            (1,): cr.parse("x~1*(1 + x~2^2 + x~3^2)"),
            (2,): cr.parse("x~1^2*x~2"),
            (3,): cr.parse("x~1^2*x~3"),
            (1, 2, 3): cr.parse("x~1^2"),
        },
    )
    assert cf.form == expected


def test_pullback_every_so3_chart_is_symmetric():
    phi = spinor(*linear_poisson(so3()))
    for chart in (1, 2, 3):
        cf = blowup_pullback(phi, chart)
        cr = cf.ring
        others = [j for j in (1, 2, 3) if j != chart]
        ones = " + ".join(f"x~{j}^2" for j in others)
        assert cf.form.coefficient((chart,)) == cr.parse(f"x~{chart}*(1 + {ones})")


def test_pullback_wedge_functoriality(rng):
    ring = PolyRing(("x1", "x2", "x3", "x4"))

    def random_poly_form(max_deg=2):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(0, 4)
            indices = tuple(sorted(rng.sample(range(1, 5), degree)))
            terms[indices] = random_polynomial(rng, ring, max_terms=2, max_degree=max_deg)
        return GradedForm(4, ring, terms)

    for trial in range(100):
        chart = rng.randint(1, 4)
        alpha = random_poly_form()
        beta = random_poly_form()
        lhs = blowup_pullback(alpha.wedge(beta), chart).form
        rhs = blowup_pullback(alpha, chart).form.wedge(
            blowup_pullback(beta, chart).form
        )
        assert lhs == rhs


def test_pullback_polynomial_substitution():
    ring = PolyRing(("x1", "x2", "x3"))
    bc = BlowupChart(ring, 2)
    assert bc.pull_polynomial(ring.parse("x2")) == bc.chart_ring.parse("x~2")
    assert bc.pull_polynomial(ring.parse("x1")) == bc.chart_ring.parse("x~2*x~1")
    f = ring.parse("x1*x3 - x2^2")
    g = ring.parse("x1 + 2*x3")
    assert bc.pull_polynomial(f * g) == bc.pull_polynomial(f) * bc.pull_polynomial(g)


def test_pullback_chart_out_of_range():
    ring = PolyRing(("x1", "x2"))
    form = volume_form(ring)
    with pytest.raises(DomainError):
        blowup_pullback(form, 3)
    with pytest.raises(DomainError):
        blowup_pullback(form, 0)


# -- vanishing order --------------------------------------------------------------------


def test_vanishing_order_so3_every_chart():
    phi = spinor(*linear_poisson(so3()))
    for chart in (1, 2, 3):
        cert = vanishing_order(blowup_pullback(phi, chart))
        assert cert.order == 1
        assert cert.status == "certified"
        cr = cert.leading.ring
        others = [j for j in (1, 2, 3) if j != chart]
        ones = " + ".join(f"x~{j}^2" for j in others)
        expected = GradedForm(3, cr, {(chart,): cr.parse(f"1 + {ones}")})
        assert cert.leading.form == expected


def test_vanishing_order_abelian_volume():
    phi = spinor(*linear_poisson(abelian(3)))
    cert = vanishing_order(blowup_pullback(phi, 1))
    assert cert.order == 2
    assert cert.status == "certified"
    assert cert.leading.form == GradedForm(3, cert.leading.ring, {(1, 2, 3): 1})


def test_certificate_names_the_first_coefficient_in_print_order():
    # both leading coefficients are nonzero constants; whichever order the
    # terms are stored in, the certificate names the degree-0 one, printed first
    ring = PolyRing(("x~1", "x~2"))
    for terms in ({(): 2, (1, 2): 3}, {(1, 2): 3, (): 2}):
        form = GradedForm(2, ring, {i: ring.const(c) for i, c in terms.items()})
        cert = vanishing_order(ChartForm(form, 1))
        assert cert.certificate == "coefficient of 1: nonzero constant"


def test_vanishing_order_zero_form_rejected():
    ring = PolyRing(("x1", "x2"))
    cf = blowup_pullback(GradedForm(2, ring), 1)
    with pytest.raises(DomainError):
        vanishing_order(cf)


def test_vanishing_order_transverse_note():
    ring = PolyRing(("x1", "x2"))
    cf = blowup_pullback(GradedForm(2, ring, {(): 1, (1, 2): 1}), 1)
    cert = vanishing_order(cf)
    assert cert.order == 0


# -- bundle fixture ------------------------------------------------------------------------


def test_bundle_constant_scaling_orders():
    # f = 1: order one, certified; not the top order, so Dirac-only
    phi = spinor(*scaled_so3_bundle("1"))
    for chart in SCALED_SO3_BLOWN:
        cert = vanishing_order(blowup_pullback(phi, chart, SCALED_SO3_BLOWN))
        assert (cert.order, cert.status) == (1, "certified")

    # f = 0: the bivector vanishes, order is codim - 1 = 2 everywhere
    phi0 = spinor(*scaled_so3_bundle("0"))
    for chart in SCALED_SO3_BLOWN:
        cert = vanishing_order(blowup_pullback(phi0, chart, SCALED_SO3_BLOWN))
        assert (cert.order, cert.status) == (2, "certified")


def test_bundle_vanishing_scaling_is_falsified():
    phi = spinor(*scaled_so3_bundle("y1"))
    cert = vanishing_order(blowup_pullback(phi, 1, SCALED_SO3_BLOWN))
    assert cert.order == 1
    assert cert.status == "falsified"
    point = cert.witness_point
    assert point is not None
    # witness lies on the divisor and on {y1 = 0}
    assert point[0] == 0
    names = cert.leading.ring.vars
    assert names.index("y1") == 3
    assert point[3] == 0
    # every leading coefficient vanishes there, exactly
    for poly in cert.leading.form.terms.values():
        assert evaluate(poly, point) == 0


def test_bundle_pullback_matches_displayed_formula():
    phi = spinor(*scaled_so3_bundle("y1"))
    cf = blowup_pullback(phi, 1, SCALED_SO3_BLOWN)
    cr = cf.ring
    expected = GradedForm(
        5,
        cr,
        {
            (1, 4, 5): cr.parse("y1*x~1*(1 + x~2^2 + x~3^2)"),
            (2, 4, 5): cr.parse("y1*x~1^2*x~2"),
            (3, 4, 5): cr.parse("y1*x~1^2*x~3"),
            (1, 2, 3, 4, 5): cr.parse("x~1^2"),
        },
    )
    assert cf.form == expected


def test_bundle_base_blowup_lifts_as_poisson():
    # blowing up the fibre over the base origin: constant order codim - 1 = 1
    phi = spinor(*scaled_so3_bundle("y1"))
    for chart in (4, 5):
        cert = vanishing_order(blowup_pullback(phi, chart, (4, 5)))
        assert (cert.order, cert.status) == (1, "certified")


# -- restriction to lines ---------------------------------------------------------------------


def test_restrict_to_line_so3():
    # on the line (1, 0, 0) chart 1's spinor restricts to t dx1 + t^2 dx123
    cf = blowup_pullback(spinor(*linear_poisson(so3())), 1)
    assert line_order(cf, (1, 0, 0)) == 1  # = dim - 1 - height = 3 - 1 - 1
    assert line_order(cf, (Fraction(-2, 3), 5, 7)) == 1


def test_restrict_to_line_abelian():
    for m in (1, 2, 4):
        cf = blowup_pullback(spinor(*linear_poisson(abelian(m))), 1)
        xi = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(m))
        assert line_order(cf, xi) == m - 1


def test_restrict_to_line_heis3():
    phi = spinor(*linear_poisson(heis3()))
    assert line_order(blowup_pullback(phi, 1), (1, 0, 0)) == 2  # height 0
    assert line_order(blowup_pullback(phi, 3), (0, 0, 1)) == 1  # height 1


def test_restrict_to_line_wrong_chart():
    cf = blowup_pullback(spinor(*linear_poisson(so3())), 1)
    with pytest.raises(DomainError):
        line_order(cf, (0, 1, 0))
    with pytest.raises(StructureError):
        line_order(cf, (1, 0))
    partial = blowup_pullback(spinor(*scaled_so3_bundle("1")), 1, SCALED_SO3_BLOWN)
    with pytest.raises(DomainError):
        line_order(partial, (1, 0, 0, 0, 0))
    # x~2 - x~3 vanishes identically on the line through (1, 1, 1)
    ring = cf.ring
    vanishing = ChartForm(GradedForm(3, ring, {(1,): ring.parse("x~2 - x~3")}), 1)
    with pytest.raises(DomainError):
        line_order(vanishing, (1, 1, 1))


def test_preferred_chart_policy():
    assert preferred_chart((Fraction(1), Fraction(-3), Fraction(2))) == 2
    assert preferred_chart((Fraction(2), Fraction(-2), Fraction(1))) == 1


def test_line_order_dictionary_small_runs():
    for L in (so3(), heis3(), sl2()):
        report = check_line_orders(L, samples=60, seed=5)
        assert not report.mismatches, report.mismatches


def test_certified_constant_order_iff_line_orders_constant():
    # constant certified order across charts <=> one t-order across sampled lines
    constant_cases = (so3(), abelian(3), diagonal_affine(2))
    varying_cases = (sl2(), heis3())
    for L in constant_cases + varying_cases:
        phi = spinor(*linear_poisson(L))
        certs = [
            vanishing_order(blowup_pullback(phi, chart))
            for chart in range(1, L.dim + 1)
        ]
        all_certified = all(c.status == "certified" for c in certs) and len(
            {c.order for c in certs}
        ) == 1
        stream = covector_stream(L.dim, seed=17)
        orders = set()
        for _ in range(100):
            xi = next(stream)
            chart = preferred_chart(xi)
            orders.add(line_order(blowup_pullback(phi, chart), xi))
        assert all_certified == (len(orders) == 1), L.name
        if L in varying_cases:
            assert any(c.status == "falsified" for c in certs), L.name


def test_top_component_order_is_codim_minus_one():
    for L in (so3(), sl2(), heis3(), diagonal_affine(2), abelian(4)):
        phi = spinor(*linear_poisson(L))
        m = L.dim
        for chart in range(1, m + 1):
            cf = blowup_pullback(phi, chart)
            top = [p for indices, p in cf.form.ordered_terms() if len(indices) == m]
            assert min(p.valuation(chart) for p in top) == m - 1


# -- verdicts -----------------------------------------------------------------------------------


def test_lift_verdicts_catalog():
    verdict = lift_verdict(so3())
    assert (verdict.kind, verdict.classification.constant_height) == ("lifts_as_dirac_only", 1)
    assert verdict.spinor_agreement == "confirmed"
    assert verdict.expected_order == 1

    for L, param in ((diagonal_affine(2), 2), (abelian(4), None)):
        verdict = lift_verdict(L)
        assert (verdict.kind, verdict.classification.constant_height) == ("lifts_as_poisson", 0)
        assert verdict.expected_order == L.dim - 1

    for L in (sl2(), heis3()):
        verdict = lift_verdict(L)
        assert verdict.kind == "does_not_lift"
        assert verdict.classification.witnesses is not None
        h1, h2 = verdict.classification.witness_heights
        assert h1 != h2
        assert verdict.spinor_agreement == "confirmed"


def test_poisson_iff_order_is_codim_minus_one():
    catalog = [abelian(n) for n in range(1, 5)]
    catalog += [diagonal_affine(n) for n in range(1, 4)]
    catalog += [so3(), sl2(), heis3()]
    for L in catalog:
        verdict = lift_verdict(L)
        certified_top = all(
            cert.status == "certified" and cert.order == L.dim - 1
            for cert in verdict.certificates.values()
        )
        assert (verdict.kind == "lifts_as_poisson") == certified_top


def test_order_invariant_under_unimodular_basis_change(rng):
    from conftest import rational

    def random_unimodular(n):
        m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = Fraction(rng.randint(-2, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        return m

    for L in (so3(), diagonal_affine(2), abelian(3)):
        base_orders = {
            chart: cert.order
            for chart, cert in lift_verdict(L).certificates.items()
        }
        for _ in range(10):
            conj = change_basis(L, random_unimodular(L.dim))
            verdict = lift_verdict(conj)
            orders = {chart: cert.order for chart, cert in verdict.certificates.items()}
            assert orders == base_orders


# -- perturbation invariance ------------------------------------------------------------------------


def test_perturbation_trivial_and_fixtures():
    # perturbing the linear bivector by terms vanishing to second order at the
    # origin changes neither the chart order nor where the leading form vanishes
    L = so3()
    ring = linear_poisson(L)[0].ring
    zero = GradedVector(3, ring)
    assert perturbed_orders(L, zero, 1, samples=20) == (1, 1, True)

    w = GradedVector(3, ring, {(2, 3): ring.parse("x1^2")})
    assert perturbed_orders(L, w, 1, samples=40) == (1, 1, True)

    h = heis3()
    ring_h = linear_poisson(h)[0].ring
    w_h = GradedVector(3, ring_h, {(1, 2): ring_h.parse("x3^2")})
    for chart in (1, 2, 3):
        order, order_w, same_zeros = perturbed_orders(h, w_h, chart, samples=40)
        assert order == order_w and same_zeros
