"""Deterministic covector and point sampling.

All randomized suites draw from these streams so that a fixed seed gives a
fixed sequence: the deterministic seed portion (dual basis vectors, then
pairwise sums and differences) comes first, followed by seeded random draws
with rational components (numerators in [-20, 20], denominators in
{1, 2, 3}; the zero vector is rejected and redrawn).  Strata where the height
drops are coordinate subspaces in natural bases, so the deterministic seeds
visit them before luck is needed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

DEFAULT_SEED = 1729

_BOUND = 20
_DENOMINATORS = (1, 2, 3)

# the entries of the deterministic seeds, shared: a Fraction is immutable
ZERO, ONE, MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


def dual_basis(n: int) -> list[tuple[Fraction, ...]]:
    return [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]


def pairwise_combinations(n: int) -> list[tuple[Fraction, ...]]:
    """The sums e_a + e_b of dual basis vectors, a < b, then the differences e_a - e_b."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return [
        tuple(ONE if i == a else sign if i == b else ZERO for i in range(n))
        for sign in (ONE, MINUS_ONE)
        for a, b in pairs
    ]


def random_vector(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    while True:
        vec = tuple(
            Fraction(rng.randint(-_BOUND, _BOUND), rng.choice(_DENOMINATORS))
            for _ in range(n)
        )
        if any(vec):
            return vec


def random_covectors(n: int, seed: int = DEFAULT_SEED) -> Iterator[tuple[Fraction, ...]]:
    """The endless seeded random draws that follow the deterministic seeds."""
    rng = random.Random(seed)
    while True:
        yield random_vector(rng, n)


def covector_stream(n: int, seed: int = DEFAULT_SEED) -> Iterator[tuple[Fraction, ...]]:
    """Deterministic seeds first, then an endless seeded random stream."""
    yield from dual_basis(n)
    yield from pairwise_combinations(n)
    yield from random_covectors(n, seed)


def point_stream(n: int, seed: int = DEFAULT_SEED) -> Iterator[tuple[Fraction, ...]]:
    """Like covector_stream but starting from the origin (points, not covectors)."""
    yield (ZERO,) * n
    if n:
        yield from covector_stream(n, seed)
