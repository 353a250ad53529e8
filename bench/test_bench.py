"""Self-tests of the benchmark's generators, oracle and statistics.

Run with ``python -m pytest bench/test_bench.py``; they never import the
program.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import generators as gen
import oracle
import run
import stats
import workloads


@pytest.mark.parametrize(
    "alg, dim",
    [
        (gen.gl(2), 4),
        (gen.gl(3), 9),
        (gen.sl(2), 3),
        (gen.sl(3), 8),
        (gen.so(3), 3),
        (gen.so(4), 6),
        (gen.so(5), 10),
        (gen.heis(3), 3),
        (gen.heis(5), 5),
        (gen.filiform(5), 5),
        (gen.abelian(6), 6),
        (gen.diagonal_affine(5), 6),
        (gen.anisotropic_sl2(), 3),
        (gen.late_witness_sl2(), 3),
    ],
    ids=lambda x: x.name if isinstance(x, gen.Algebra) else str(x),
)
def test_builders_have_dimension_and_satisfy_jacobi(alg, dim):
    assert alg.dim == dim
    assert gen.jacobi_defects(alg) == []
    rng = random.Random(7)
    assert gen.jacobi_defects(gen.signed_permutation(alg, rng)) == []


def test_jacobi_check_reports_a_broken_table():
    broken = gen.Algebra("broken", 3, {(1, 2): {3: Fraction(1)}, (1, 3): {1: Fraction(1)}}, gen.OTHER, 1)
    assert gen.jacobi_defects(broken) == [(1, 2, 3)]


def test_seeded_conjugates_are_lie_algebras_with_rational_entries():
    rng = random.Random(3)
    for base in (gen.so(3), gen.sl(2), gen.heis(3), gen.diagonal_affine(3)):
        conj = gen.seeded_conjugate(base, rng)
        assert conj.family == base.family
        assert conj.generic_height == base.generic_height
        assert gen.jacobi_defects(conj) == []
        assert conj.table != base.table


def _killing(alg):
    n = alg.dim
    ad = [[alg.bracket_vector(a, j) for j in range(1, n + 1)] for a in range(1, n + 1)]
    return [
        [sum(ad[a][k][j] * ad[b][j][k] for j in range(n) for k in range(n)) for b in range(n)]
        for a in range(n)
    ]


def test_late_witness_cone_has_no_small_integer_point():
    alg = gen.late_witness_sl2()
    assert alg.family == gen.OTHER
    inverse = gen._inverse(_killing(alg))
    q = lambda x: sum(x[i] * inverse[i][j] * x[j] for i in range(3) for j in range(3))  # noqa: E731
    assert q((-2, 5, -8)) == 0
    small = [x for x in itertools.product(range(-7, 8), repeat=3) if any(x)]
    assert all(q(x) != 0 for x in small)


def test_conjugation_by_the_identity_is_the_identity():
    so3 = gen.so(3)
    identity = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert gen.conjugate(so3, identity).table == so3.table


def test_document_is_schema_1_without_the_answer():
    text = gen.to_document(gen.seeded_conjugate(gen.sl(2), random.Random(2)))
    lines = text.splitlines()
    assert lines[:3] == ["schema_version: 1", "name: sl2_conj", "dimension: 3"]
    assert all(line.startswith("bracket: ") for line in lines[3:])
    assert "expected" not in text
    assert any("/" in line for line in lines[3:])


def test_oracle_follows_the_classification():
    assert oracle.expected_verdict(gen.abelian(4).family) == ("lifts_as_poisson", 0)
    assert oracle.expected_verdict(gen.diagonal_affine(3).family) == ("lifts_as_poisson", 0)
    assert oracle.expected_verdict(gen.so(3).family) == ("lifts_as_dirac_only", 1)
    conj = gen.seeded_conjugate(gen.so(3), random.Random(1))
    assert oracle.expected_verdict(conj.family) == ("lifts_as_dirac_only", 1)
    for alg in (gen.so(4), gen.sl(2), gen.anisotropic_sl2(), gen.heis(3), gen.gl(3), gen.filiform(5)):
        assert oracle.expected_verdict(alg.family) == ("does_not_lift", None)
    # constant height k: every chart has order dim - 1 - k
    assert oracle.expected_chart_order(gen.so(3)) == 1
    assert oracle.expected_chart_order(gen.abelian(6)) == 5
    assert oracle.expected_chart_order(gen.so(5)) == 5


def _analyze_output(kind, k, orders, statuses, witness_heights=None):
    verdict = {
        "kind": kind,
        "constant_height": k,
        "charts": {
            str(c): {"order": o, "status": s}
            for c, (o, s) in enumerate(zip(orders, statuses), start=1)
        },
    }
    if witness_heights is not None:
        verdict["witness_heights"] = witness_heights
    return {
        "verdict": verdict,
        "orbit_crosscheck": {"mismatches": 0},
        "line_order_crosscheck": {"mismatches": 0},
    }


def test_oracle_accepts_right_and_flags_wrong_analyze_output():
    so3 = gen.so(3)
    good = _analyze_output("lifts_as_dirac_only", 1, [1, 1, 1], ["certified"] * 3)
    assert oracle.check_analyze(so3, good) == []
    wrong = _analyze_output("does_not_lift", None, [1, 1, 1], ["certified"] * 3, [0, 1])
    assert oracle.check_analyze(so3, wrong)
    sl2 = gen.sl(2)
    good = _analyze_output("does_not_lift", None, [1, 1, 1], ["falsified"] * 3, [0, 1])
    assert oracle.check_analyze(sl2, good) == []
    claims_constant = _analyze_output("does_not_lift", None, [1, 1, 1], ["certified"] * 3, [0, 1])
    assert oracle.check_analyze(sl2, claims_constant)
    bad_order = _analyze_output("does_not_lift", None, [1, 2, 1], ["falsified"] * 3, [0, 1])
    assert oracle.check_analyze(sl2, bad_order)


def test_exit_3_is_an_error_unless_the_command_may_give_up():
    raw = run.Raw(3, "", "no height witness pair found within 10000 samples\n", None, 7.0)
    commands = workloads.build("conjugate_witness", 1)
    assert [c.algebra.name for c in commands if c.may_give_up] == ["sl2_conj", "aniso_sl2"]
    for cmd in commands:
        status, _ = run.Client._status(cmd, raw)
        assert status == (run.NO_VERDICT if cmd.may_give_up else run.ERROR)


def test_a_command_counts_once_and_fails_on_any_failing_run():
    ok = run.Outcome(0, "analyze a", "analyze", 1.0, run.OK)
    again = run.Outcome(0, "analyze a", "analyze", 1.1, run.OK)
    gave_up = run.Outcome(1, "analyze b", "analyze", 7.0, run.NO_VERDICT, "exit 3")
    drifted = run.Outcome(2, "spinor c", "spinor", 2.0, run.NONDETERMINISTIC)
    first = run.Outcome(2, "spinor c", "spinor", 2.0, run.OK)
    chosen = run.per_command(3, [ok, gave_up, first, again, gave_up, drifted])
    assert chosen == [ok, gave_up, drifted]


def test_tail_percentile():
    assert stats.tail_percentile(range(14)) is None
    assert stats.tail_percentile(range(20)) is None
    assert stats.tail_percentile(range(1, 101)) == (90, 90)
    p, value = stats.tail_percentile(range(56))
    assert p == 82 and value == 45
    assert 56 - (value + 1) >= 10


def test_quartile_spread():
    assert stats.quartile_spread([1.0] * 10) == 0
    assert stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx((4.5 - 1.5) / 3)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_a_function_of_the_seed(name):
    docs = lambda seed: [gen.to_document(c.algebra) + " ".join(c.options) for c in workloads.build(name, seed)]  # noqa: E731
    assert docs(5) == docs(5)
    assert docs(5) != docs(6)
