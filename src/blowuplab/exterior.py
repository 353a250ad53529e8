"""Sparse exterior algebra over an n-dimensional space, exact coefficients.

Elements map index masks to nonzero ring coefficients, mixed degrees
allowed: the basis element with indices i_1 < ... < i_k has the mask with
bit i - 1 set for each index i.  Every sign is one rule, `wedge_sign`: the
parity of the count of index bits passed over.  Index tuples appear only at
the boundary: the validating constructor, `coefficient` and `ordered_terms`.
Terms are added and printed by the rules of `rings` that polynomials use,
`add_term` and `join_terms`.
``GradedForm`` indexes the dual basis (wedge products of the theta_i /
dx_i), ``GradedVector`` the basis multivectors (wedge products of the e_i).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import StructureError
from .rings import CoeffRing, Polynomial, add_term, format_rational, join_terms

IndexTuple = tuple[int, ...]


def index_bit(i: int) -> int:
    """The mask of the single index i."""
    return 1 << (i - 1)


def mask_indices(mask: int) -> IndexTuple:
    """The strictly increasing index tuple of a mask."""
    return tuple(i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1)


def wedge_sign(left: int, right: int) -> int:
    """The sign of e_left ^ e_right against e_(left | right), for disjoint
    masks: each bit of `right` passes the bits of `left` above it."""
    swaps = 0
    while right:
        low = right & -right
        swaps += (left & -low).bit_count()
        right ^= low
    return -1 if swaps & 1 else 1


def _indices_mask(dim: int, indices: Sequence[int]) -> tuple[int, int]:
    """(mask, sorting sign) of an index sequence, built one index at a time
    by `wedge_sign`, or (0, 0) on a repeat; every index is range-checked first."""
    for i in indices:
        if not 1 <= i <= dim:
            raise StructureError(f"index {i} out of range 1..{dim}")
    mask, sign = 0, 1
    for i in indices:
        bit = index_bit(i)
        if mask & bit:
            return 0, 0
        sign *= wedge_sign(mask, bit)
        mask |= bit
    return mask, sign


class _Alternating:
    """Shared implementation of graded forms and graded multivectors."""

    __slots__ = ("dim", "ring", "terms")

    def __init__(self, dim: int, ring: CoeffRing, terms: Mapping | None = None):
        if dim < 0:
            raise StructureError("dimension must be nonnegative")
        self.dim = dim
        self.ring = ring
        self.terms: dict[int, object] = {}
        for indices, coeff in (terms or {}).items():
            mask, sign = _indices_mask(dim, indices)
            if sign:
                add_term(self.terms, mask, ring.coerce(coeff) if sign > 0 else -ring.coerce(coeff))

    @classmethod
    def _trusted(cls, dim: int, ring: CoeffRing, terms: dict):
        """Internal constructor for terms that are already canonical: index
        masks below 2^dim, coefficients of the ring's own type, no zeros.
        The terms are kept in any order; callers own the invariants."""
        self = object.__new__(cls)
        self.dim = dim
        self.ring = ring
        self.terms = terms
        return self

    # -- structure -------------------------------------------------------------

    def _require_compatible(self, other: "_Alternating"):
        if type(self) is not type(other):
            raise StructureError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.dim != other.dim:
            raise StructureError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.ring != other.ring:
            raise StructureError(f"coefficient ring mismatch: {self.ring} vs {other.ring}")

    def is_zero(self) -> bool:
        return not self.terms

    def ordered_terms(self) -> list:
        """The (index tuple, coefficient) items by degree, then index tuple:
        the one order in which terms are printed and searched."""
        items = [(mask_indices(mask), c) for mask, c in self.terms.items()]
        return sorted(items, key=lambda item: (len(item[0]), item[0]))

    def coefficient(self, indices: Sequence[int]):
        mask, sign = _indices_mask(self.dim, indices)
        coeff = self.terms.get(mask) if sign else None
        return self.ring.zero() if coeff is None else coeff if sign > 0 else -coeff

    # -- linear operations -------------------------------------------------------

    def __add__(self, other):
        self._require_compatible(other)
        merged = dict(self.terms)
        for mask, coeff in other.terms.items():
            add_term(merged, mask, coeff)
        return self._trusted(self.dim, self.ring, merged)

    def __neg__(self):
        return self._trusted(self.dim, self.ring, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        factor = self.ring.coerce(value)
        if not factor:
            return self._trusted(self.dim, self.ring, {})
        # a product of nonzero elements of an integral domain is nonzero
        return self._trusted(
            self.dim, self.ring, {i: c * factor for i, c in self.terms.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, _Alternating):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.dim == other.dim
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    # -- multiplication ----------------------------------------------------------

    def wedge(self, other):
        self._require_compatible(other)
        out: dict[int, object] = {}
        for left, lc in self.terms.items():
            for right, rc in other.terms.items():
                if left & right:
                    continue
                merged = left | right
                coeff = lc * rc if wedge_sign(left, right) > 0 else -(lc * rc)
                if merged in out:
                    coeff = out[merged] + coeff
                if not coeff:
                    out.pop(merged, None)
                else:
                    out[merged] = coeff
        return self._trusted(self.dim, self.ring, out)

    # -- rendering ------------------------------------------------------------------

    def render(self, names: Sequence[str], scale: int = 1) -> str:
        if len(names) != self.dim:
            raise StructureError("need one basis name per dimension")
        pairs = []
        monomials: dict = {}  # shared by the coefficients of this one call
        for indices, coeff in self.ordered_terms():
            poly = isinstance(coeff, Polynomial)
            text = coeff.render(monomials, scale) if poly else format_rational(coeff, scale)
            pairs.append((text, "∧".join([names[i - 1] for i in indices])))
        return join_terms(pairs)

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(dim={self.dim}, terms={{{', '.join(f'{i}: {c}' for i, c in self.ordered_terms())}}})"


class GradedForm(_Alternating):
    """Element of the exterior algebra over the dual basis; may mix degrees."""


class GradedVector(_Alternating):
    """Element of the exterior algebra over the basis multivectors."""

