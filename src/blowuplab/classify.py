"""Exact decision of constant height, with constructed height witnesses.

"Every nonzero covector has the same height" is decided structurally: the
only algebras with that property are the abelian ones (height 0), the
semidirect products R x| R^n with the one-dimensional factor acting as the
identity (height 0), and the compact simple three-dimensional algebra
(height 1).  Membership in each family is an exact test on the structure
constants.  When all three fail, two covectors of different heights back
the verdict.  The search runs three phases in order: structural candidates
(dual-basis seeds, their pairwise sums and differences, and annihilators of
ideals); lines in Cartan slices, where an exact real root of a polynomial in
Q[t] marks a height drop (the lower witness may be irrational); then the
seeded random draws of the sampling stream, whose exhaustion is reported
loudly, never read as constant height.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from . import linalg, realroots
from .errors import DisagreementError, WitnessSearchError
from .liealg import Covector, LieAlgebra, as_covector, ce_differential, covector_form
from .liealg import derived_algebra, height, killing_form, sampled_covectors
from .rings import PolyRing
from .sampling import DEFAULT_SEED, dual_basis, pairwise_combinations, random_covectors
from .sampling import random_vector

WITNESS_CAP = 10_000
_SLICE_LINES = 8
_T = PolyRing(("t",))


class RealRootWitness(NamedTuple):
    """The covector base + alpha*direction, of exact height `height`, at the
    one real root alpha of the monic polynomial g(t) in the interval (lo, hi]."""

    base: Covector
    direction: Covector
    g: realroots.Poly
    interval: tuple[Fraction, Fraction]
    height: int


class ClassificationVerdict(NamedTuple):
    """Outcome of the constant-height decision.

    kind is one of "abelian", "diagonal_affine", "so3",
    "not_constant_height".  For the first two, param records the family
    parameter (dim g and dim g - 1 respectively).  Witnesses are present
    exactly for "not_constant_height" and re-verify to distinct heights;
    the lower one is a RealRootWitness when no rational one was found.
    """

    kind: str
    constant_height: int | None
    param: int | None = None
    witnesses: tuple[Covector | RealRootWitness, Covector] | None = None
    witness_heights: tuple[int, int] | None = None


def is_diagonal_affine(L: LieAlgebra) -> bool:
    """Recognize R x| R^(n-1) with the generator acting as a nonzero scalar.

    The test is one identity on the integer table, [a, b] = lambda(a) b -
    lambda(b) a for a nonzero form lambda: ker lambda = [g, g] is abelian,
    and x with lambda(x) = 1 acts on it as the identity.
    """
    n = L.dim
    if n < 2:
        return False
    # D lambda_i is the b_j-coefficient of D [b_i, b_j], here for j = i % n + 1
    lam = [L.bracket_basis(i, i % n + 1, scaled=True)[i % n] for i in range(1, n + 1)]
    return any(lam) and not any(
        L.bracket_basis(i + 1, j + 1, scaled=True)
        != [lam[i] if k == j else -lam[j] if k == i else 0 for k in range(n)]
        for i, j in itertools.combinations(range(n), 2)
    )


def _structural_candidates(L: LieAlgebra):
    """Dual-basis seeds, their pairwise sums and differences, then covectors
    annihilating an ideal I, whose heights are those of g/I: first the
    derived algebra (height 0, since d kills them), then the kernel of the
    Killing form, built only when the earlier candidates are used up."""
    n = L.dim
    yield from dual_basis(n) + pairwise_combinations(n)
    for ideal in (derived_algebra, lambda L: linalg.null_space(killing_form(L, scaled=True), n)):
        rows = ideal(L)
        if rows:
            yield from (as_covector(vec) for vec in linalg.null_space(rows, n) if any(vec))


def _line_chain(L: LieAlgebra, base: Covector, direction: Covector, top: int):
    """For xi(t) = base + t*direction, the coefficients of xi ^ (D d xi)^j
    over Q[t] as realroots polynomials, one list for each j = 0..top: D^j
    times those of xi ^ (d xi)^j, with the same zeros and gcds."""
    t = _T.variable(1)
    level = covector_form(L, [b + d * t for b, d in zip(base, direction)], _T)
    omega, levels = ce_differential(L, level, scaled=True), [level]
    for _ in range(top):
        levels.append(levels[-1].wedge(omega))
    return [
        [realroots.trim(c.terms.get((e,), 0) for e in range(max(c.terms)[0] + 1))
         for c in level.terms.values()]
        for level in levels
    ]


def _vanishes_at(coeffs, g, interval) -> bool:
    """Whether all coeffs vanish at the one root of g in the interval."""
    return realroots.count_roots(functools.reduce(realroots.gcd, coeffs, g), *interval) == 1


def verify_real_root_witness(L: LieAlgebra, w: RealRootWitness, top: int) -> bool:
    """Re-check w against a partner of height top, from L and w alone: g has one
    root alpha in the interval and divides every coefficient of xi ^ (d xi)^top,
    and xi(alpha) has height w.height < top (so it is nonzero)."""
    if not 0 <= w.height < top or realroots.count_roots(w.g, *w.interval) != 1:
        return False
    levels = _line_chain(L, w.base, w.direction, top)
    return (
        not any(realroots.divide(c, w.g)[1] for c in levels[top])
        and not _vanishes_at(levels[w.height], w.g, w.interval)
        and (w.height + 1 == top or _vanishes_at(levels[w.height + 1], w.g, w.interval))
    )


def _slice_witness(L: LieAlgebra, top: int, seed: int):
    """A covector of height below top on a Cartan slice, or None.

    A rational x gives h = ker ad_x, a Cartan subalgebra when x is regular,
    the line y(t) = h1 + t*h2 in it and xi(t) = B(y(t), .), B the Killing
    form, taken as D^2 B: every sign, rank and primitive multiple is B's.  A
    real root of the gcd g of the coefficients of xi ^ (d xi)^top is a
    height drop: returns xi there if rational (xi(0) if g = 0), else a
    RealRootWitness."""
    n = L.dim
    rng = random.Random(seed)
    killing = killing_form(L, scaled=True)
    value = lambda y: sum(a * b for a, b in zip(y, linalg.mat_vec(killing, y)))  # noqa: E731
    for _ in range(_SLICE_LINES):
        x = random_vector(rng, n)
        h = linalg.null_space(list(zip(*(L.bracket(x, e) for e in dual_basis(n)))), n)
        if len(h) == 1:
            # h = R x: on sl2's forms ad_x flips the Killing sign on its image, so r = [x, z]
            # or [x, r] has the sign opposite to x's and the line crosses the isotropic cone
            h.append(L.bracket(x, random_vector(rng, n)))
            if value(x) * value(h[1]) >= 0:
                h[1] = L.bracket(x, h[1])
        base, direction = linalg.integer_rows([linalg.mat_vec(killing, y) for y in h[:2]])
        if linalg.rank([base, direction]) < 2:
            continue
        # positive rescalings keep every height and shrink the coefficients
        base, direction = (as_covector(linalg.primitive(v)) for v in (base, direction))
        levels = _line_chain(L, base, direction, top)
        if not levels[top]:
            return base
        g = functools.reduce(realroots.gcd, levels[top], ())
        intervals = realroots.isolating_intervals(g)
        for interval in intervals:
            root = realroots.rational_root(g, *interval)
            if root is not None:
                return tuple(b + root * d for b, d in zip(base, direction))
        if intervals:
            lows = (j for j in reversed(range(top)) if not _vanishes_at(levels[j], g, intervals[0]))
            return RealRootWitness(base, direction, g, intervals[0], next(lows))
    return None


def _first_two_heights(L: LieAlgebra, candidates, seen: dict[int, Covector]) -> int:
    """Record the first candidate of each height in seen, stopping once two
    heights are seen; returns the number of candidates tried."""
    tried = 0
    for tried, xi in enumerate(candidates, start=1):
        seen.setdefault(height(L, xi), xi)
        if len(seen) == 2:
            break
    return tried


def _find_height_witnesses(L: LieAlgebra, seed: int):
    """Two covectors of different heights: the structural candidates, then
    the slice phase, then seeded random draws, WITNESS_CAP candidates in all
    outside the slice phase.  The first random draw comes before the slice:
    when every structural candidate sits below the generic height (so(5)'s
    standard basis), it decides at once and the slice is never searched."""
    seen: dict[int, Covector] = {}
    tried = _first_two_heights(L, _structural_candidates(L), seen)
    draws = random_covectors(L.dim, seed)
    if len(seen) == 1:
        tried += _first_two_heights(L, itertools.islice(draws, 1), seen)
    top = max(seen)
    if len(seen) == 1 and top:
        found = _slice_witness(L, top, seed)
        if isinstance(found, RealRootWitness):
            if not verify_real_root_witness(L, found, top):
                raise DisagreementError(f"real-root witness fails its re-check: {found}")
            return (found, seen[top]), (found.height, top)
        if found is not None:
            _first_two_heights(L, [found], seen)
    if len(seen) == 1:
        _first_two_heights(L, itertools.islice(draws, max(WITNESS_CAP - tried, 0)), seen)
    if len(seen) == 1:
        raise WitnessSearchError(
            f"no height witness pair found within {WITNESS_CAP} samples; "
            "refusing to report constant height without a structural proof"
        )
    (k1, x1), (k2, x2) = sorted(seen.items())
    return (x1, x2), (k1, k2)


def classify_constant_height(
    L: LieAlgebra, seed: int = DEFAULT_SEED
) -> ClassificationVerdict:
    """Decide constant height exactly; never silently constant."""
    L.validate()
    if L.is_abelian():
        return ClassificationVerdict("abelian", 0, param=L.dim)
    if is_diagonal_affine(L):
        return ClassificationVerdict("diagonal_affine", 0, param=L.dim - 1)
    if L.dim == 3 and linalg.is_negative_definite(killing_form(L, scaled=True)):
        return ClassificationVerdict("so3", 1)
    witnesses, heights = _find_height_witnesses(L, seed)
    return ClassificationVerdict("not_constant_height", None, None, witnesses, heights)


class HeightSpectrum(NamedTuple):
    counts: dict[int, int]
    witnesses: dict[int, Covector]
    samples: int


def sample_height_spectrum(
    L: LieAlgebra, samples: int, seed: int = DEFAULT_SEED
) -> HeightSpectrum:
    """Heights of the first `samples` covectors of the deterministic stream."""
    counts: dict[int, int] = {}
    witnesses: dict[int, Covector] = {}
    for sample in sampled_covectors(L, samples, seed):
        k = sample.invariants.height
        counts[k] = counts.get(k, 0) + 1
        witnesses.setdefault(k, sample.xi)
    return HeightSpectrum(dict(sorted(counts.items())), witnesses, samples)
