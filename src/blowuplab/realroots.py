"""Exact real roots of univariate polynomials over Q: Sturm counts and
bisection to half-open intervals (lo, hi] with rational ends (Basu, Pollack
& Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).  A polynomial is a
tuple of ``Fraction`` coefficients, constant term first, without trailing
zeros; ``()`` is zero."""

from __future__ import annotations

from fractions import Fraction

from .linalg import primitive

Poly = tuple[Fraction, ...]


def trim(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def divide(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of a by a nonzero b, exact for int coefficients too."""
    rem, quot = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(quot))):
        c = quot[i] = Fraction(rem[i + len(b) - 1], b[-1])
        for j, bc in enumerate(b):
            rem[i + j] -= c * bc
    return trim(quot), trim(rem[: len(b) - 1])


def gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd, so gcd(p, ()) is p made monic; gcd((), ()) is ()."""
    while b:
        a, b = b, divide(a, b)[1]
    return tuple(Fraction(c, a[-1]) for c in a)


def squarefree(p: Poly) -> Poly:
    """p / gcd(p, p'), monic: the roots of p, each simple."""
    return gcd(divide(p, gcd(p, _derivative(p)))[0], ())


def _derivative(p: Poly) -> Poly:
    return tuple(i * c for i, c in enumerate(p))[1:]


def sturm_sequence(p: Poly) -> list[tuple[int, ...]]:
    """The Sturm sequence of the square-free part of a nonconstant p, each
    member an integer polynomial rescaled by a positive factor."""
    seq = [primitive(squarefree(p))]
    seq.append(primitive(_derivative(seq[0])))
    while len(seq[-1]) > 1:
        seq.append(primitive(-c for c in divide(seq[-2], seq[-1])[1]))
    return seq


def _scaled_value(q: tuple[int, ...], x: Fraction) -> int:
    """q(x) times the positive den(x)^deg(q), in integers only."""
    total, power = 0, 1
    for c in reversed(q):
        total = total * x.numerator + c * power
        power *= x.denominator
    return total


def _variations(seq: list[tuple[int, ...]], x: Fraction) -> int:
    signs = [v > 0 for v in (_scaled_value(q, x) for q in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(p: Poly, lo: Fraction, hi: Fraction) -> int:
    """The number of distinct real roots of a nonzero p in (lo, hi], even at a
    root end: with zeros skipped, Sturm sign variations are right-continuous."""
    if len(p) < 2:
        return 0
    seq = sturm_sequence(p)
    return _variations(seq, lo) - _variations(seq, hi)


def isolating_intervals(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Increasing disjoint intervals (lo, hi], one around each real root of
    a nonzero p and holding no other."""
    if len(p) < 2:
        return []
    seq = sturm_sequence(p)
    bound = 1 + max(abs(c / p[-1]) for c in p)  # Cauchy: every |root| < bound
    out, todo = [], [(-bound, bound)]
    while todo:
        lo, hi = todo.pop()
        n = _variations(seq, lo) - _variations(seq, hi)
        if n == 1:
            out.append((lo, hi))
        elif n > 1:
            todo += [((lo + hi) / 2, hi), (lo, (lo + hi) / 2)]
    return sorted(out)


_PRETEST_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, p)))


def _has_root_mod(q: tuple[int, ...], prime: int) -> bool:
    reduced = [c % prime for c in q]
    return any(sum(c * x**i for i, c in enumerate(reduced)) % prime == 0 for x in range(prime))


def rational_root(p: Poly, lo: Fraction, hi: Fraction) -> Fraction | None:
    """The root of p in its isolating interval (lo, hi] if it is rational,
    without factoring: a root a/b of the primitive integer square-free part
    q has b | lc(q), and such fractions lie at least 1/lc^2 apart.  So once
    the interval is bisected below width 1/lc^2, steered by the sign of q
    (the root is simple), the only candidate is the fraction of denominator
    at most lc closest to its midpoint.  First a modular pre-test: that
    root a/b would give the root a/b mod p of q mod p for every prime p not
    dividing lc(q), since p does not divide b either."""
    q = primitive(squarefree(p))
    if any(q[-1] % prime and not _has_root_mod(q, prime) for prime in _PRETEST_PRIMES):
        return None
    at_hi = _scaled_value(q, hi)
    while at_hi and hi - lo >= Fraction(1, q[-1] ** 2):
        mid = (lo + hi) / 2
        at_mid = _scaled_value(q, mid)
        if not at_mid or (at_mid > 0) == (at_hi > 0):
            hi, at_hi = mid, at_mid
        else:
            lo = mid
    if not at_hi:
        return hi
    candidate = ((lo + hi) / 2).limit_denominator(q[-1])
    return None if _scaled_value(q, candidate) else candidate
