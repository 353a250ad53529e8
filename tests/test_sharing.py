"""Each shared quantity of one analysis is computed once.

`analyze` runs four suites over the same algebra and the same sampled
covectors.  The linear Poisson bivector, its integer spinor and chart
pullbacks with one grouping of each by u-exponent, the lifted Hamiltonian
fields, one line-order table per chart, and one record per sampled covector
(the covector, its primitive integer multiple and its invariant record) are
built once per algebra and read by every suite; the witness search alone calls the plain
height oracle, one call per candidate, and past its first draw it leaves its
random draws to the inputs that need them.  Both height oracles read d xi
off the integer pairing matrix, so the Chevalley-Eilenberg differential
runs only in the Jacobi check.  A chart pullback rewrites exponents and a
line order evaluates compiled monomials in integers, so neither wedges or
multiplies polynomials, and the line orders build none.  Call counts come
from cProfile, so they count every call whatever name it goes through.
"""

from __future__ import annotations

import cProfile
import pstats
from fractions import Fraction

import blowuplab.classify as classify_mod
from blowuplab import change_basis, charts, heis3, liealg, linalg, poisson_spinor, sampling
from blowuplab import sl2, so3
from blowuplab.cli import main
from blowuplab.exterior import GradedForm
from blowuplab.model_io import serialize_algebra
from blowuplab.rings import Polynomial
from blowuplab.sampling import dual_basis, pairwise_combinations
from conftest import adjoint_extension, as_lie, gen, seeded_conjugate

SAMPLES = 30
DIM = 3  # sl2


def _calls(profile: cProfile.Profile, fn) -> int:
    code = fn.__code__
    entry = pstats.Stats(profile).stats.get(
        (code.co_filename, code.co_firstlineno, code.co_name)
    )
    return entry[1] if entry else 0


def test_analyze_shares_every_per_algebra_quantity(capsys, monkeypatch):
    candidates = []
    real_height = classify_mod.height

    def counted_height(L, xi):
        candidates.append(xi)
        return real_height(L, xi)

    monkeypatch.setattr(classify_mod, "height", counted_height)
    profile = cProfile.Profile()
    profile.enable()
    try:
        code = main(
            ["analyze", "--catalog", "sl2", "--samples", str(SAMPLES), "--format", "machine"]
        )
    finally:
        profile.disable()
    capsys.readouterr()
    assert code == 0
    assert candidates, "sl2 does not lift, so the witness search must run"

    assert _calls(profile, poisson_spinor.linear_poisson) == 1
    assert _calls(profile, poisson_spinor.spinor) == 1
    assert _calls(profile, charts.BlowupChart.pull_form) == DIM
    assert _calls(profile, charts.BlowupChart.lift_vector_field) <= DIM * DIM
    assert _calls(profile, liealg.height) == len(candidates)
    # d theta_m and d(d theta_m) for every generator, once, in the Jacobi check
    assert _calls(profile, liealg.ce_differential) <= 2 * DIM
    # one primitive integer multiple per sampled covector and per candidate
    assert _calls(profile, linalg.primitive) == SAMPLES + len(candidates)
    # per chart: the lifted fields, the line-order table and the leading
    # part of the spinor pullback, one call each; none per sample
    assert _calls(profile, charts.integer_terms) <= 3 * DIM
    # one grouping of each chart form by u-exponent, read by both the
    # vanishing order and the line-order table
    assert _calls(profile, poisson_spinor._by_order) <= DIM


def test_witness_search_decides_without_random_draws(monkeypatch):
    """Structural candidates and the slice phase decide the ladder and these
    conjugates.  The first random draw, taken before the slice, is a witness
    only for a generic height above every seed's (so5 in its standard basis:
    every seed has height 3, a generic covector height 4); here it is none,
    and no later draw is taken."""
    first_draws = []
    random_covectors = classify_mod.random_covectors

    def one_draw(n, seed):
        first_draws.append(next(random_covectors(n, seed)))
        yield first_draws[-1]
        raise AssertionError("the witness search drew past its first random covector")

    monkeypatch.setattr(classify_mod, "random_covectors", one_draw)
    tables = [gen.heis(5), gen.filiform(5), gen.sl(3), gen.so(4), gen.gl(3)]
    algebras = [sl2(), heis3()] + [as_lie(table) for table in tables]
    for build in (heis3, sl2, lambda: as_lie(gen.so(4)), lambda: adjoint_extension(so3())):
        algebras += [seeded_conjugate(build(), seed) for seed in (1, 2)]
    for L in algebras:
        verdict = classify_mod.classify_constant_height(L)
        low, high = verdict.witness_heights
        assert low < high, L.name
        assert not set(verdict.witnesses) & set(first_draws), L.name
        seeds = dual_basis(L.dim) + pairwise_combinations(L.dim)
        assert max(liealg.height(L, xi) for xi in seeds) >= 1, L.name


def test_height_kernel_tables_are_built_once_per_algebra(capsys, tmp_path):
    """The generator differentials d theta_k, the integer structure
    constants and the Killing matrix are per-algebra tables: the Jacobi
    check reads the first, every covector of one analysis, the witness
    candidates included, the second, and the classifier the third.  The one
    integer table is built with the algebra, the only one built."""
    conjugator = [
        [1, Fraction(1, 2), 0],
        [0, 1, Fraction(-1, 3)],
        [Fraction(2, 5), 0, 1],
    ]
    document = tmp_path / "sl2_conjugate.alg"
    document.write_text(serialize_algebra(change_basis(sl2(), conjugator)), encoding="utf-8")
    profile = cProfile.Profile()
    profile.enable()
    try:
        code = main(
            ["analyze", "--input", str(document), "--samples", str(SAMPLES), "--format", "machine"]
        )
    finally:
        profile.disable()
    capsys.readouterr()
    assert code == 0
    assert _calls(profile, liealg.height) > 0, "the witness search must run"
    assert _calls(profile, liealg.ce_differential) > DIM
    assert _calls(profile, liealg._generator_differential) <= DIM
    assert _calls(profile, liealg.LieAlgebra.__init__) == 1
    assert _calls(profile, liealg.LieAlgebra.ad_matrix) <= DIM


def _profiled(fn):
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return profile, result


def test_analyze_draws_the_sampled_covectors_once_per_command(capsys):
    """The height spectrum, the orbit/rank check and the line orders visit
    one draw of the sampled covectors.  so3 is classified structurally, so
    every random draw belongs to that stream; a second command builds its
    algebra anew and draws again."""
    argv = ["analyze", "--catalog", "so3", "--samples", "48", "--format", "machine"]
    random_draws = 48 - len(dual_basis(3) + pairwise_combinations(3))
    profile, codes = _profiled(lambda: [main(argv)])
    assert codes == [0]
    assert _calls(profile, sampling.random_vector) == random_draws
    profile, codes = _profiled(lambda: [main(argv), main(argv)])
    capsys.readouterr()
    assert codes == [0, 0]
    assert _calls(profile, sampling.random_vector) == 2 * random_draws


def test_pullback_and_line_restriction_read_exponents_only():
    L = as_lie(gen.sl(3))
    assert L.jacobi_violations() == []
    phi = poisson_spinor.spinor(*poisson_spinor.linear_poisson(L))
    profile, pulled = _profiled(
        lambda: [poisson_spinor.blowup_pullback(phi, chart) for chart in range(1, L.dim + 1)]
    )
    assert all(not cf.form.is_zero() for cf in pulled)
    assert _calls(profile, charts.BlowupChart.pull_form) == L.dim
    assert _calls(profile, GradedForm.wedge) == 0
    assert _calls(profile, Polynomial.__mul__) == 0

    profile, report = _profiled(lambda: poisson_spinor.check_line_orders(L, samples=5))
    assert not report.mismatches
    assert _calls(profile, poisson_spinor._order_on_line) == 5
    assert 1 <= _calls(profile, poisson_spinor._line_table) <= L.dim

    # once the pullbacks are cached, the line orders build no polynomial
    for chart in range(1, L.dim + 1):
        poisson_spinor.shared_pullback(L, chart)
    profile, report = _profiled(lambda: poisson_spinor.check_line_orders(L, samples=48))
    assert not report.mismatches
    assert _calls(profile, Polynomial._trusted.__func__) == 0
