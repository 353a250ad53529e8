"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from blowuplab import (
    GradedForm,
    GradedVector,
    LieAlgebra,
    PolyRing,
    RATIONALS,
    abelian,
    blowup_pullback,
    ce_differential,
    check_line_orders,
    classify_constant_height,
    covector_form,
    diagonal_affine,
    heis3,
    height,
    lift_verdict,
    linear_poisson,
    orbit_rank_crosscheck,
    sample_height_spectrum,
    scaled_so3_bundle,
    sl2,
    so3,
    spinor,
    vanishing_order,
)
from blowuplab.charts import BlowupChart
from blowuplab.cli import main
from blowuplab.model_io import SCALED_SO3_BLOWN, catalog_entries
from blowuplab.sampling import covector_stream

from conftest import (
    apply_field,
    random_form,
    random_homogeneous,
    random_polynomial,
    random_vector_field,
    rational,
    nonzero_rational,
)
from reference import evaluate, interior, rational_table, reference_jacobi_check, term


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {text}")
        raise
    print(f"PASS criterion {number}: {text}")


def _all_algebra_entries():
    return [e for e in catalog_entries() if e.kind == "algebra"]


def test_criterion_1_so3_pipeline(capsys):
    with criterion(1, "so3 pipeline: height 1, Dirac-only, order 1 in every chart"):
        code = main(
            ["analyze", "--catalog", "so3", "--format", "machine", "--samples", "50"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"]["kind"] == "lifts_as_dirac_only"
        assert payload["verdict"]["constant_height"] == 1
        verdict = lift_verdict(so3())
        assert verdict.classification.constant_height == 1
        for chart, cert in verdict.certificates.items():
            assert cert.order == 1
            assert cert.status == "certified"
            ring = cert.leading.ring
            others = [j for j in (1, 2, 3) if j != chart]
            expected = GradedForm(
                3,
                ring,
                {(chart,): ring.parse("1 + " + " + ".join(f"x~{j}^2" for j in others))},
            )
            assert cert.leading.form == expected or cert.leading.form == -expected


def test_criterion_2_sl2():
    with criterion(2, "sl2: DoesNotLift, witness heights {0,1}, exact cone polynomial"):
        L = sl2()
        verdict = lift_verdict(L)
        assert verdict.kind == "does_not_lift"
        assert set(verdict.classification.witness_heights) == {0, 1}
        for xi, k in zip(
            verdict.classification.witnesses, verdict.classification.witness_heights
        ):
            assert height(L, xi) == k
        ring = PolyRing(("xi1", "xi2", "xi3"))
        xi = covector_form(L, [ring.variable(i) for i in (1, 2, 3)], ring)
        product = xi.wedge(ce_differential(L, xi))
        cone = ring.parse("-xi1^2 - xi2^2 + xi3^2")
        coefficient = product.coefficient((1, 2, 3))
        assert coefficient == cone or coefficient == -cone
        assert all(len(i) == 3 for i, _ in product.ordered_terms())  # nothing in other degrees


def test_criterion_3_classification_table():
    with criterion(3, "classification table with 500-sample spectra"):
        cases = [(abelian(n), 0) for n in range(1, 7)]
        cases += [(diagonal_affine(n), 0) for n in range(1, 6)]
        cases += [(so3(), 1)]
        for L, expected in cases:
            verdict = classify_constant_height(L)
            assert verdict.constant_height == expected, L.name
            spectrum = sample_height_spectrum(L, 500)
            assert tuple(spectrum.counts) == (expected,), L.name


def test_criterion_4_line_order_dictionary():
    with criterion(4, "line-restricted spinor order = dim - 1 - height, 200 covectors"):
        for L in (so3(), sl2(), heis3(), abelian(4), diagonal_affine(3)):
            report = check_line_orders(L, samples=200)
            assert report.samples == 200
            assert not report.mismatches, (L.name, report.mismatches[:3])


def test_criterion_5_orbit_rank_equivalences():
    from blowuplab import catalog_algebra

    with criterion(5, "distribution rank, orbit split and Cartan class at 100 points"):
        for entry in _all_algebra_entries():
            L = catalog_algebra(entry.name)
            report = orbit_rank_crosscheck(L, samples=100)
            assert not report.mismatches, (entry.name, report.mismatches[:3])


def test_criterion_6_bundle_trichotomy():
    with criterion(6, "scaled so(3) bundle: orders 1 / 2 / falsified-with-point"):
        phi_one = spinor(*scaled_so3_bundle("1"))
        phi_zero = spinor(*scaled_so3_bundle("0"))
        phi_y1 = spinor(*scaled_so3_bundle("y1"))
        for chart in SCALED_SO3_BLOWN:
            cert = vanishing_order(blowup_pullback(phi_one, chart, SCALED_SO3_BLOWN))
            assert (cert.order, cert.status) == (1, "certified")
            cert = vanishing_order(blowup_pullback(phi_zero, chart, SCALED_SO3_BLOWN))
            assert (cert.order, cert.status) == (2, "certified")
            cert = vanishing_order(blowup_pullback(phi_y1, chart, SCALED_SO3_BLOWN))
            assert (cert.order, cert.status) == (1, "falsified")
            point = cert.witness_point
            assert point is not None
            assert point[chart - 1] == 0  # on the divisor
            for poly in cert.leading.form.terms.values():
                assert evaluate(poly, point) == 0


def _random_table_perturbation(rng, base: LieAlgebra) -> LieAlgebra:
    table = {pair: dict(enumerate(vec, start=1)) for pair, vec in rational_table(base).items()}
    i = rng.randint(1, base.dim - 1)
    j = rng.randint(i + 1, base.dim)
    k = rng.randint(1, base.dim)
    entry = table.setdefault((i, j), {})
    entry[k] = entry.get(k, Fraction(0)) + Fraction(rng.randint(1, 3))
    return LieAlgebra(base.dim, table)


def test_criterion_7_property_suites():
    rng = random.Random(410)
    with criterion(7, "property suites: d^2 <-> Jacobi, scaling, algebra laws, lifts"):
        # d^2 = 0 on generators <-> empty Jacobi report, both directions
        bases = [so3(), sl2(), heis3(), abelian(4), diagonal_affine(3)]
        tables = list(bases)
        for _ in range(20):
            tables.append(_random_table_perturbation(rng, rng.choice(bases)))
        tables.append(
            LieAlgebra(3, {(1, 2): {3: 1}, (2, 3): {2: 1}, (1, 3): {2: -1}})
        )
        saw_invalid = False
        for L in tables:
            theta = lambda k: term(GradedForm, L.dim, (k,))
            d_squared_zero = all(
                ce_differential(L, ce_differential(L, theta(k))).is_zero()
                for k in range(1, L.dim + 1)
            )
            valid = not reference_jacobi_check(L)
            assert d_squared_zero == valid
            saw_invalid |= not valid
        assert saw_invalid

        # height scale invariance, >= 100 cases
        algebras = [so3(), sl2(), heis3(), diagonal_affine(3), abelian(4)]
        for count in range(100):
            L = algebras[count % len(algebras)]
            xi = next(covector_stream(L.dim, seed=1000 + count))
            c = nonzero_rational(rng)
            assert height(L, tuple(c * x for x in xi)) == height(L, xi)

        # wedge graded commutativity and interior derivation, >= 100 each
        for _ in range(100):
            dim = rng.randint(1, 8)
            p, q = rng.randint(0, dim), rng.randint(0, dim)
            a, b = random_homogeneous(rng, dim, p), random_homogeneous(rng, dim, q)
            rhs = b.wedge(a)
            assert a.wedge(b) == (rhs if (p * q) % 2 == 0 else -rhs)
        for _ in range(100):
            dim = rng.randint(1, 7)
            p = rng.randint(0, dim)
            a = random_homogeneous(rng, dim, p)
            b = random_form(rng, dim)
            v = GradedVector(
                dim, RATIONALS, {(i,): rational(rng) for i in range(1, dim + 1)}
            )
            assert interior(v, a.wedge(b)) == interior(v, a).wedge(b) + a.wedge(
                interior(v, b)
            ).scale((-1) ** p)
            assert interior(v, interior(v, a)).is_zero()

        # pullback wedge functoriality, >= 100 cases
        ring = PolyRing(("x1", "x2", "x3"))
        for _ in range(100):
            chart = rng.randint(1, 3)
            terms_a = {
                tuple(sorted(rng.sample(range(1, 4), rng.randint(0, 3)))):
                    random_polynomial(rng, ring, max_terms=2, max_degree=2)
                for _ in range(rng.randint(1, 2))
            }
            terms_b = {
                tuple(sorted(rng.sample(range(1, 4), rng.randint(0, 3)))):
                    random_polynomial(rng, ring, max_terms=2, max_degree=2)
                for _ in range(rng.randint(1, 2))
            }
            alpha, beta = GradedForm(3, ring, terms_a), GradedForm(3, ring, terms_b)
            assert blowup_pullback(alpha.wedge(beta), chart).form == blowup_pullback(
                alpha, chart
            ).form.wedge(blowup_pullback(beta, chart).form)

        # lifted-field identity (lift X)(p* f) = p*(X f), >= 100 cases
        for _ in range(100):
            m = rng.randint(1, 4)
            ring_m = PolyRing(tuple(f"x{i}" for i in range(1, m + 1)))
            chart = rng.randint(1, m)
            coeffs = random_vector_field(rng, ring_m)
            f = random_polynomial(rng, ring_m, max_terms=3, max_degree=2)
            bc = BlowupChart(ring_m, chart)
            lifted = bc.lift_vector_field(coeffs)
            x_f = apply_field(coeffs, f)
            assert apply_field(lifted, bc.pull_polynomial(f)) == bc.pull_polynomial(x_f)


def test_criterion_8_poisson_iff_top_order():
    with criterion(8, "Poisson verdict <=> certified order = dim - 1, full catalog"):
        from blowuplab import catalog_algebra

        for entry in _all_algebra_entries():
            L = catalog_algebra(entry.name)
            verdict = lift_verdict(L)
            assert verdict.kind == entry.expected_verdict, entry.name
            top_certified = all(
                cert.status == "certified" and cert.order == L.dim - 1
                for cert in verdict.certificates.values()
            )
            assert (verdict.kind == "lifts_as_poisson") == top_certified, entry.name


def test_criterion_9_determinism(capsys):
    with criterion(9, "byte-identical machine reruns of analyze heis3"):
        args = [
            "analyze",
            "--catalog",
            "heis3",
            "--format",
            "machine",
            "--seed",
            "1729",
        ]
        code1 = main(args)
        out1 = capsys.readouterr().out
        code2 = main(args)
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["seed"] == 1729
