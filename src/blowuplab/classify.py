"""Exact decision of constant height, with a sampling falsifier.

"Every nonzero covector has the same height" is decided structurally: the
only algebras with that property are the abelian ones (height 0), the
semidirect products R x| R^n with the one-dimensional factor acting as the
identity (height 0), and the compact simple three-dimensional algebra
(height 1).  Membership in each family is an exact test on the structure
constants; when all three fail, a deterministic escalating search produces
two covectors of different heights as a witness, and failing to find one
within the cap is reported loudly rather than treated as constant.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import WitnessSearchError
from .liealg import Covector, LieAlgebra, covector_invariants, derived_algebra, height, killing_form
from .sampling import DEFAULT_SEED, dual_basis, pairwise_combinations, random_vector, sampled_covectors

WITNESS_CAP = 10_000
ESCALATE_EVERY = 2_000
_SHELL_BUDGET = 6_000


@dataclass(frozen=True)
class ClassificationVerdict:
    """Outcome of the constant-height decision.

    kind is one of "abelian", "diagonal_affine", "so3",
    "not_constant_height".  For the first two, param records the family
    parameter (dim g and dim g - 1 respectively).  Witnesses are present
    exactly for "not_constant_height" and re-verify to distinct heights.
    """

    kind: str
    constant_height: int | None
    param: int | None = None
    witnesses: tuple[Covector, Covector] | None = None
    witness_heights: tuple[int, int] | None = None


def is_diagonal_affine(L: LieAlgebra):
    """Recognize R x| R^(n-1) with the generator acting as a nonzero scalar.

    Returns (normalized generator, ideal basis) with the generator rescaled
    so that it acts as the identity, or None.  The test: the derived algebra
    is abelian of dimension dim-1, and any complement vector acts on it as a
    nonzero scalar; the choice of complement does not affect the outcome.
    """
    n = L.dim
    ideal = derived_algebra(L)
    if len(ideal) != n - 1 or n < 2:
        return None
    for u in ideal:
        for v in ideal:
            if any(L.bracket(u, v)):
                return None
    # pick a standard basis vector outside the ideal
    candidate = None
    for i in range(n):
        unit = [Fraction(int(j == i)) for j in range(n)]
        if not linalg.in_row_space(ideal, unit):
            candidate = unit
            break
    if candidate is None:
        return None
    scalar = None
    for h in ideal:
        image = L.bracket(candidate, h)
        # image must equal scalar * h with one shared scalar
        pivot = next((idx for idx, v in enumerate(h) if v), None)
        if pivot is None:
            return None
        ratio = image[pivot] / h[pivot]
        if [ratio * v for v in h] != image:
            return None
        if scalar is None:
            scalar = ratio
        elif scalar != ratio:
            return None
    if not scalar:
        return None
    generator = [v / scalar for v in candidate]
    return generator, ideal


def _witness_candidates(L: LieAlgebra, seed: int):
    """Deterministic witness stream: dual-basis seeds, structure-derived
    covectors, then small-integer shells interleaved with random draws.

    Covectors annihilating the derived algebra are killed by the
    differential, so they have height 0 in any basis.  Small integer points
    of a height-drop locus do not survive a rational change of basis: the
    locus of a conjugated table may have only rational points of large
    height, out of reach of both the shells and the random draws.  Random
    rational conjugates of sl2 (entries p/q with |p|, q <= 30) typically
    exhaust WITNESS_CAP, and the search then raises WitnessSearchError.
    """
    n = L.dim
    yield from dual_basis(n)
    yield from pairwise_combinations(n)
    derived_rows = derived_algebra(L)
    if derived_rows:
        for vec in linalg.null_space(derived_rows, n):
            if any(vec):
                yield tuple(vec)
    rng = random.Random(seed)
    bound = 1
    random_bound = 20
    drawn = 0
    while True:
        if (2 * bound + 1) ** n <= _SHELL_BUDGET:
            for point in itertools.product(range(-bound, bound + 1), repeat=n):
                if max(abs(x) for x in point) == bound:
                    yield tuple(Fraction(x) for x in point)
        for _ in range(500):
            yield random_vector(rng, n, random_bound)
            drawn += 1
            if drawn % ESCALATE_EVERY == 0:
                random_bound *= 2
        bound += 1


def _find_height_witnesses(L: LieAlgebra, seed: int):
    seen: dict[int, Covector] = {}
    for count, xi in enumerate(_witness_candidates(L, seed)):
        if count >= WITNESS_CAP:
            break
        k = height(L, xi)
        if k not in seen:
            seen[k] = xi
            if len(seen) == 2:
                (k1, x1), (k2, x2) = sorted(seen.items())
                return (x1, x2), (k1, k2)
    raise WitnessSearchError(
        f"no height witness pair found within {WITNESS_CAP} samples; "
        "refusing to report constant height without a structural proof"
    )


def classify_constant_height(
    L: LieAlgebra, seed: int = DEFAULT_SEED
) -> ClassificationVerdict:
    """Decide constant height exactly; never silently constant."""
    L.validate()
    if L.is_abelian():
        return ClassificationVerdict("abelian", 0, param=L.dim)
    if is_diagonal_affine(L) is not None:
        return ClassificationVerdict("diagonal_affine", 0, param=L.dim - 1)
    if L.dim == 3 and linalg.is_negative_definite(killing_form(L)):
        return ClassificationVerdict("so3", 1)
    witnesses, heights = _find_height_witnesses(L, seed)
    return ClassificationVerdict(
        "not_constant_height",
        None,
        witnesses=witnesses,
        witness_heights=heights,
    )


@dataclass(frozen=True)
class HeightSpectrum:
    counts: dict[int, int]
    witnesses: dict[int, Covector]
    samples: int

    def heights(self) -> tuple[int, ...]:
        return tuple(sorted(self.counts))


def sample_height_spectrum(
    L: LieAlgebra, samples: int, seed: int = DEFAULT_SEED
) -> HeightSpectrum:
    """Heights of the first `samples` covectors of the deterministic stream."""
    counts: dict[int, int] = {}
    witnesses: dict[int, Covector] = {}
    for xi in sampled_covectors(L.dim, samples, seed):
        k = covector_invariants(L, xi).height
        counts[k] = counts.get(k, 0) + 1
        witnesses.setdefault(k, xi)
    return HeightSpectrum(dict(sorted(counts.items())), witnesses, samples)
