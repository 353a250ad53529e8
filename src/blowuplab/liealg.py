"""Lie algebra core: structure constants, Chevalley-Eilenberg differential,
heights, types, Cartan class, Killing form, derived ideal, coadjoint data.

Sign convention, fixed once for the whole package: on a degree-1 generator,

    (d xi)(b_i, b_j) = -xi([b_i, b_j]),

extended to higher degrees as a derivation of degree +1.  The opposite
convention flips signs of odd-degree outputs but leaves every height, rank
and order computed here unchanged; the convention above is what makes the
generic so(3) covector satisfy xi wedge d(xi) = -(sum xi_j^2) theta_123,
which the fixtures assert verbatim.
"""

from __future__ import annotations

import itertools
from enum import IntEnum
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import linalg
from .errors import DisagreementError, DomainError, JacobiError, StructureError
from .exterior import GradedForm, index_bit, wedge_sign
from .rings import CoeffRing, RATIONALS, Rational
from .sampling import DEFAULT_SEED, covector_stream

Covector = tuple[Fraction, ...]


def as_covector(values: Sequence[Rational]) -> Covector:
    return tuple(RATIONALS.coerce(v) for v in values)


class LieAlgebra:
    """A finite-dimensional Lie algebra over the rationals.

    Structure constants follow [b_i, b_j] = sum_k c(i,j,k) b_k, given as
    {(i, j): {k: c(i,j,k)}} and stored sparsely for i < j only; the i > j
    half is implied by antisymmetry, which makes antisymmetry hold by
    construction (conflicting duplicate entries are rejected eagerly).  One
    int table `_table` keeps them times their common denominator D, `_scale`:
    x -> D x maps the algebra onto the one with constants D c, on which the
    kernels compute, while the accessors return the rationals as stated.
    The Jacobi identity is *not* required at construction time:
    `jacobi_violations()` computes and caches the defect list, and
    operations whose meaning depends on it call `validate()`.  Instances
    are immutable; the caches are write-once.
    """

    __slots__ = ("dim", "name", "_table", "_scale", "_memo")

    def __init__(self, dim: int, brackets: Mapping, name: str | None = None):
        if dim < 1:
            raise StructureError("dimension must be positive")
        self.dim = dim
        self.name = name
        pairs: dict[tuple[int, int], list[Rational]] = {}
        for (i, j), components in brackets.items():
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise StructureError(f"bracket indices ({i},{j}) out of range 1..{dim}")
            if not isinstance(components, Mapping):
                raise StructureError(
                    f"bracket ({i},{j}) must map target indices to values, got {components!r}"
                )
            vector = [0] * dim
            for k, value in components.items():
                if not 1 <= k <= dim:
                    raise StructureError(f"bracket target index {k} out of range")
                vector[k - 1] = value if type(value) is int else RATIONALS.coerce(value)
            if i == j:
                if any(vector):
                    raise StructureError(f"[b_{i}, b_{i}] must vanish")
                continue
            key, vec = ((i, j), vector) if i < j else ((j, i), [-v for v in vector])
            if key in pairs:
                if pairs[key] != vec:
                    raise StructureError(
                        f"antisymmetry violated on bracket pair {key}"
                    )
            elif any(vec):
                pairs[key] = vec
        keys = sorted(pairs)
        # the one table: the stored constants times their common denominator D
        self._scale, ints = linalg.integer_multiple(v for key in keys for v in pairs[key])
        self._table = {key: tuple(ints[n * dim : (n + 1) * dim]) for n, key in enumerate(keys)}
        self._memo = {}

    # -- accessors ---------------------------------------------------------

    def bracket_basis(self, i: int, j: int, scaled: bool = False) -> list[Rational]:
        """[b_i, b_j] as a coordinate vector; with `scaled`, D times it in ints."""
        stored = self._table.get((min(i, j), max(i, j)), (0,) * self.dim)
        vec = [v if i < j else -v for v in stored]
        return vec if scaled else [Fraction(v, self._scale) for v in vec]

    def bracket(self, u: Sequence[Rational], v: Sequence[Rational], scaled: bool = False) -> list:
        """[u, v] for arbitrary coordinate vectors; with `scaled`, D [u, v],
        in ints for vectors of ints."""
        u, v = ([x if type(x) is int else RATIONALS.coerce(x) for x in w] for w in (u, v))
        if len(u) != self.dim or len(v) != self.dim:
            raise StructureError("vector length does not match the algebra dimension")
        out = [0] * self.dim
        for (i, j), vec in self._table.items():
            factor = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            if factor:
                for k, c in enumerate(vec):
                    out[k] += factor * c
        return out if scaled else [RATIONALS.coerce(x) / self._scale for x in out]

    def is_abelian(self) -> bool:
        return not self._table

    def memo(self, key, build):
        """build(), computed once per instance and key and kept as long as
        the algebra: shared derived data such as the linear Poisson bivector,
        its chart pullbacks and the sampled covectors with their records."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value

    # -- validation -----------------------------------------------------------

    def jacobi_violations(self):
        return self.memo("jacobi", lambda: jacobi_check(self))

    def validate(self) -> "LieAlgebra":
        violations = self.jacobi_violations()
        if violations:
            raise JacobiError(violations)
        return self

    def __repr__(self):
        label = self.name or "?"
        return f"LieAlgebra({label}, dim={self.dim})"


def jacobi_check(L: LieAlgebra) -> list[tuple[tuple[int, int, int], tuple[Fraction, ...]]]:
    """All triples (i, j, k), i<j<k, whose cyclic double brackets fail to cancel.

    Returns the nonzero defect vector [[b_i,b_j],b_k] + [[b_j,b_k],b_i]
    + [[b_k,b_i],b_j] for each violating triple, in triple order; empty
    means the table is a Lie algebra.  The defects are read off d o d, with
    the differential the heights use: the coefficient of theta_ijk in
    d(d theta_m) is the m-th entry of the defect of (i, j, k).  Both d run
    on the integer table, D^2 times each defect, divided for a failing triple.
    """
    defects: dict[tuple[int, int, int], list[int]] = {}
    for m in range(L.dim):
        theta = GradedForm._trusted(L.dim, RATIONALS, {index_bit(m + 1): 1})
        dd = ce_differential(L, ce_differential(L, theta, scaled=True), scaled=True)
        for triple, value in dd.ordered_terms():
            defects.setdefault(triple, [0] * L.dim)[m] = value
    return [(t, tuple(Fraction(v, L._scale**2) for v in d)) for t, d in sorted(defects.items())]


def change_basis(L: LieAlgebra, matrix: Sequence[Sequence[Rational]]) -> LieAlgebra:
    """Structure constants in the basis b'_j = sum_i matrix[i][j] b_i."""
    rows = [[RATIONALS.coerce(matrix[i][j]) for j in range(L.dim)] for i in range(L.dim)]
    cols, inv = list(zip(*rows)), linalg.inverse(rows)
    if inv is None:
        raise DomainError("change of basis requires an invertible matrix")
    brackets = {}
    for i in range(1, L.dim + 1):
        for j in range(i + 1, L.dim + 1):
            w = L.bracket(cols[i - 1], cols[j - 1])
            new = linalg.mat_vec(inv, w)
            if any(new):
                brackets[(i, j)] = {k: v for k, v in enumerate(new, start=1) if v}
    return LieAlgebra(L.dim, brackets, name=f"{L.name or 'algebra'}~conj")


# -- Chevalley-Eilenberg differential ------------------------------------------


def covector_form(L: LieAlgebra, xi: Sequence, ring: CoeffRing = RATIONALS) -> GradedForm:
    """The degree-1 form sum_i xi_i theta_i (coefficients in any ring)."""
    terms = {}
    for i in range(L.dim):
        value = ring.coerce(xi[i])
        if value:
            terms[index_bit(i + 1)] = value
    return GradedForm._trusted(L.dim, ring, terms)


def _generator_differential(L: LieAlgebra, k: int, scaled: bool) -> dict[int, Rational]:
    """The terms of d theta_k, rational; with `scaled`, of D d theta_k, in ints."""
    return {index_bit(i) | index_bit(j): -v[k - 1] if scaled else Fraction(-v[k - 1], L._scale)
            for (i, j), v in L._table.items() if v[k - 1]}


def ce_differential(L: LieAlgebra, form: GradedForm, scaled: bool = False) -> GradedForm:
    """Chevalley-Eilenberg differential, extended as a degree +1 derivation.

    Each term c theta_I contributes, for every position t, (-1)^t c
    theta_{I<t} ^ d theta_{I_t} ^ theta_{I>t} = (-1)^t c theta_{I without I_t}
    ^ d theta_{I_t} (a degree-2 form commutes), t the number of indices of I
    below I_t, one wedge sign each, summed into one term map.  Ring-generic:
    coefficients may be rationals or polynomials (the rational structure
    constants act by scalars); with `scaled` it is D d, that of the int
    table D c.  d o d = 0 precisely when the Jacobi identity holds, which is
    how `jacobi_check` reads it.
    """
    if form.dim != L.dim:
        raise StructureError("form dimension does not match the algebra")
    # the terms of d theta_1, ..., d theta_dim, built once per algebra and table
    d_theta = L.memo(
        ("d_theta", scaled),
        lambda: tuple(_generator_differential(L, k, scaled) for k in range(1, L.dim + 1)),
    )
    out: dict = {}
    for mask, coeff in form.terms.items():
        bits = mask
        while bits:
            bit = bits & -bits
            bits ^= bit
            rest = mask ^ bit
            parity = -1 if (mask & (bit - 1)).bit_count() & 1 else 1  # (-1)^t
            for middle, c in d_theta[bit.bit_length() - 1].items():
                if rest & middle:
                    continue
                merged = rest | middle
                value = c * coeff if wedge_sign(rest, middle) == parity else -(c * coeff)
                if merged in out:
                    value = out[merged] + value
                out[merged] = value
    return GradedForm._trusted(L.dim, form.ring, {i: c for i, c in out.items() if c})


# -- heights, types, orbits ----------------------------------------------------


class ElementType(IntEnum):
    ONE = 1
    TWO = 2


def _require_nonzero(L: LieAlgebra, xi: Sequence) -> Covector:
    xi = as_covector(xi)
    if len(xi) != L.dim:
        raise StructureError("covector length does not match the algebra dimension")
    if not any(xi):
        raise DomainError("covector must be nonzero")
    return xi


def _wedge_chain(form: GradedForm, omega: GradedForm) -> int:
    """The largest j with form wedge omega^j != 0, for a nonzero form."""
    j = 0
    while True:
        form = form.wedge(omega)
        if form.is_zero():
            return j
        j += 1


def _pairing_matrix(L: LieAlgebra, x: tuple[int, ...]) -> list[list[int]]:
    """A positive integer multiple of A[i][j] = (d xi)(b_i, b_j) = -xi([b_i, b_j]),
    for x the primitive integer multiple of xi; rows span T_xi O_xi.

    Built as sum_k x_k C_k, where C_k[i][j] = -D c(i, j, k) are the
    algebra's integer table, and the lower half is implied.  With x = s xi
    (s > 0) the result is D s A(xi).  Rank and row-space membership do not
    change when the matrix or the vector tested is scaled by a nonzero
    number, so every rank read off this matrix, and whether x lies in its
    row space, are those of A(xi) and xi.
    """
    rows = [[0] * L.dim for _ in range(L.dim)]
    for (i, j), vec in L._table.items():
        value = -sum(a * c for a, c in zip(x, vec))
        rows[i - 1][j - 1] = value
        rows[j - 1][i - 1] = -value
    return rows


def _height_by_rank(pairing: list[list[int]], x: tuple[int, ...]) -> int:
    """Independent oracle: half the rank of the pairing restricted to ker xi.

    ker xi has the basis b_i - (x_i / x_p) b_p, i != p, for a pivot p with
    x_p != 0; the restricted matrix is the pairing in that basis.  Scaled by
    x_p, its entries x_p A_ij - x_j A_ip - x_i A_pj are integers and no
    division is needed; a nonzero scaling leaves the rank unchanged.
    """
    p = next(i for i, v in enumerate(x) if v)
    xp = x[p]
    row_p = pairing[p]
    others = [i for i in range(len(x)) if i != p]
    rows = [
        [
            xp * pairing[i][j] - x[j] * pairing[i][p] - x[i] * row_p[j]
            for j in others
        ]
        for i in others
    ]
    r = linalg.rank(rows)
    if r % 2:
        raise DisagreementError("skew matrix of a covector has odd rank")
    return r // 2


def _checked_height(L: LieAlgebra, x: tuple[int, ...]):
    """The height of the covector xi with primitive integer multiple x = s xi
    (s > 0) by iterated wedging, cross-checked against the rank of the skew
    pairing on ker xi (a mismatch raises, since the two must agree), with
    the integer 2-form omega and the pairing matrix both oracles read.

    The pairing matrix is D s A(xi) (see `_pairing_matrix`), so its upper
    triangle is omega = D s d xi.  The wedge chain runs in integers on x and
    omega: x ^ omega^j = s^(j+1) (D s)^j xi ^ (d xi)^j is zero exactly when
    xi ^ (d xi)^j is."""
    pairing = _pairing_matrix(L, x)
    n = L.dim
    upper = {
        index_bit(i + 1) | index_bit(j + 1): row[j]
        for i, row in enumerate(pairing) for j in range(i + 1, n) if row[j]
    }
    omega = GradedForm._trusted(n, RATIONALS, upper)
    form = GradedForm._trusted(n, RATIONALS, {index_bit(i + 1): v for i, v in enumerate(x) if v})
    by_wedge = _wedge_chain(form, omega)
    by_rank = _height_by_rank(pairing, x)
    if by_wedge != by_rank:
        raise DisagreementError(
            f"height oracles disagree on {x}: wedge {by_wedge}, rank {by_rank}"
        )
    return by_wedge, omega, pairing


def height(L: LieAlgebra, xi: Sequence) -> int:
    """The unique k with xi wedge (d xi)^k != 0 and xi wedge (d xi)^{k+1} = 0.

    Computed by iterated wedging and cross-checked against the rank of the
    skew pairing on ker xi; a mismatch raises, since the two must agree.
    Nothing is stored, so a search over many candidates stays flat in memory;
    `height_report` gives the full record.
    """
    return _checked_height(L, linalg.primitive(_require_nonzero(L, xi)))[0]


class HeightReport(NamedTuple):
    """Every per-covector invariant.

    height is checked by two oracles (wedge chain and pairing rank);
    element_type and cartan_class are both derived from the same pair
    (height k, largest power r with (d xi)^r != 0), orbit_dim is the rank of
    the pairing matrix and radial_in_orbit whether xi lies in its row space.
    So of the identities checked by `invariant_failures`, class = 2*height +
    type only catches r < k, while the orbit-dimension and radial identities
    compare the elimination with the height oracles and with r.
    """

    height: int
    element_type: ElementType
    cartan_class: int
    orbit_dim: int
    radial_in_orbit: bool


def _build_invariants(L: LieAlgebra, x: tuple[int, ...]) -> HeightReport:
    """The invariant record of the covector with primitive integer multiple x."""
    k, omega, pairing = _checked_height(L, x)
    # r is the largest power with (d xi)^r != 0, read off the integer multiple
    # omega of d xi: type ONE iff (d xi)^{k+1} = 0, and the class is 2k+1 when
    # r equals k, else 2k+2
    r = _wedge_chain(GradedForm._trusted(L.dim, RATIONALS, {0: 1}), omega)
    etype = ElementType.ONE if r <= k else ElementType.TWO
    cls = 2 * k + 1 if r == k else 2 * k + 2
    # one elimination of [A; x] pivoting on A's rows only: the pivot count is
    # the orbit dimension, and x is radial exactly when its row reduces to 0
    orbit, radial = linalg.rank_and_membership(pairing, x)
    if orbit % 2:
        raise DisagreementError("coadjoint orbit dimension came out odd")
    return HeightReport(k, etype, cls, orbit, radial)


class SampledCovector(NamedTuple):
    """A sampled covector, its primitive integer multiple and its invariants."""

    xi: Covector
    x: tuple[int, ...]
    invariants: HeightReport


def sampled_covectors(
    L: LieAlgebra, samples: int, seed: int = DEFAULT_SEED
) -> tuple[SampledCovector, ...]:
    """The first `samples` covectors of the stream for L, the points that
    every per-sample suite visits, each with its primitive integer multiple
    and invariant record: built once per algebra, sample count and seed and
    kept in `L.memo`, so the suites of one command read one draw and no
    covector is converted or hashed again."""
    if samples < 1:
        raise DomainError("samples must be positive")

    def build():
        records = []
        for xi in itertools.islice(covector_stream(L.dim, seed), samples):
            x = linalg.primitive(xi)
            records.append(SampledCovector(xi, x, _build_invariants(L, x)))
        return tuple(records)

    return L.memo(("samples", samples, seed), build)


def invariant_failures(record: HeightReport) -> list[str]:
    """The identities class = 2*height + type, orbit_dim = 2*height (+2 when
    radial) and radial <=> type TWO are theorems; each violated one is named."""
    k, etype = record.height, int(record.element_type)
    failures = []
    if record.cartan_class != 2 * k + etype:
        failures.append(f"Cartan class {record.cartan_class} != 2*{k} + {etype}")
    expected_orbit = 2 * k + 2 if record.radial_in_orbit else 2 * k
    if record.orbit_dim != expected_orbit:
        failures.append(f"orbit dim {record.orbit_dim} != {expected_orbit}")
    if record.radial_in_orbit != (record.element_type is ElementType.TWO):
        failures.append("radial-line membership contradicts the element type")
    return failures


def height_report(L: LieAlgebra, xi: Sequence) -> HeightReport:
    """The invariant record of xi; a violated identity between its fields
    means an implementation bug and raises."""
    record = _build_invariants(L, linalg.primitive(_require_nonzero(L, xi)))
    failures = invariant_failures(record)
    if failures:
        raise DisagreementError("; ".join(failures))
    return record


# -- classical invariants -----------------------------------------------------


def killing_form(L: LieAlgebra, scaled: bool = False) -> list[list[Rational]]:
    """B_ij = trace(ad_{b_i} ad_{b_j}), an exact symmetric matrix; with
    `scaled`, D^2 B in ints, which has B's definiteness and kernel, built once
    per algebra and shared: callers read it and never modify it."""

    def build():
        # D ad_{b_i} as its columns [b_i, b_a]: the trace reads them as rows
        n = range(L.dim)
        ads = [[L.bracket_basis(i + 1, a + 1, scaled=True) for a in n] for i in n]
        return [[sum(x[a][b] * y[b][a] for a in n for b in n) for y in ads] for x in ads]

    matrix = L.memo("killing_form", build)
    return matrix if scaled else [[Fraction(v, L._scale**2) for v in row] for row in matrix]


def derived_algebra(L: LieAlgebra) -> list[list[Fraction]]:
    """Row-reduced basis of [g, g] = span of all basis brackets, read off
    the integer table: the reduced echelon basis does not see the scale."""
    return linalg.rref_basis(list(L._table.values()))
