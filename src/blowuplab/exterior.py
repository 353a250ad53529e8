"""Sparse exterior algebra over an n-dimensional space, exact coefficients.

Elements are stored as maps from strictly increasing 1-based index tuples to
nonzero ring coefficients; mixed degrees are allowed.  ``GradedForm`` indexes
the dual basis (wedge products of the theta_i / dx_i), ``GradedVector`` the
basis multivectors (wedge products of the e_i).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import StructureError
from .rings import CoeffRing, Polynomial, join_signed

IndexTuple = tuple[int, ...]


def _sort_indices(dim: int, indices: Sequence[int]):
    """Sort an index tuple, returning (sorted tuple, permutation sign) or sign 0
    on a repeat: each index is merged into the sorted ones before it."""
    for i in indices:
        if not 1 <= i <= dim:
            raise StructureError(f"index {i} out of range 1..{dim}")
    out, sign = (), 1
    for i in indices:
        out, step = _merge_sign(out, (i,))
        if not step:
            return (), 0
        sign *= step
    return out, sign


def _merge_sign(left: IndexTuple, right: IndexTuple):
    """Shuffle sign for merging two strictly increasing tuples, or 0 if they meet.

    One linear merge: each entry of `right` that goes before the remaining
    entries of `left` passes over all of them."""
    if not left:
        return right, 1
    if not right:
        return left, 1
    merged = []
    inversions = 0
    i = j = 0
    n_left, n_right = len(left), len(right)
    while i < n_left and j < n_right:
        a, b = left[i], right[j]
        if a < b:
            merged.append(a)
            i += 1
        elif b < a:
            merged.append(b)
            inversions += n_left - i
            j += 1
        else:
            return (), 0
    merged += left[i:]
    merged += right[j:]
    return tuple(merged), -1 if inversions & 1 else 1


class _Alternating:
    """Shared implementation of graded forms and graded multivectors."""

    __slots__ = ("dim", "ring", "terms")

    def __init__(self, dim: int, ring: CoeffRing, terms: Mapping | None = None):
        if dim < 0:
            raise StructureError("dimension must be nonnegative")
        self.dim = dim
        self.ring = ring
        clean: dict[IndexTuple, object] = {}
        if terms:
            for indices, coeff in terms.items():
                sorted_idx, sign = _sort_indices(dim, indices)
                if sign == 0:
                    continue
                coeff = ring.coerce(coeff)
                if sign < 0:
                    coeff = -coeff
                if sorted_idx in clean:
                    coeff = clean[sorted_idx] + coeff
                if not coeff:
                    clean.pop(sorted_idx, None)
                else:
                    clean[sorted_idx] = coeff
        self.terms = clean

    @classmethod
    def _trusted(cls, dim: int, ring: CoeffRing, terms: dict):
        """Internal constructor for terms that are already canonical: strictly
        increasing index tuples, coefficients of the ring's own type, no zeros.
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
        """The (indices, coefficient) items by degree, then index tuple: the
        one order in which terms are printed and searched."""
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    def coefficient(self, indices: Sequence[int]):
        sorted_idx, sign = _sort_indices(self.dim, indices)
        if sign == 0:
            return self.ring.zero()
        coeff = self.terms.get(sorted_idx, self.ring.zero())
        return coeff if sign > 0 else -coeff

    # -- linear operations -------------------------------------------------------

    def __add__(self, other):
        self._require_compatible(other)
        merged = dict(self.terms)
        for indices, coeff in other.terms.items():
            if indices in merged:
                coeff = merged[indices] + coeff
                if not coeff:
                    del merged[indices]
                    continue
            merged[indices] = coeff
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
        out: dict[IndexTuple, object] = {}
        for left, lc in self.terms.items():
            for right, rc in other.terms.items():
                merged, sign = _merge_sign(left, right)
                if sign == 0:
                    continue
                coeff = lc * rc
                if sign < 0:
                    coeff = -coeff
                if merged in out:
                    coeff = out[merged] + coeff
                if not coeff:
                    out.pop(merged, None)
                else:
                    out[merged] = coeff
        return self._trusted(self.dim, self.ring, out)

    # -- rendering ------------------------------------------------------------------

    def render(self, names: Sequence[str]) -> str:
        if len(names) != self.dim:
            raise StructureError("need one basis name per dimension")
        pieces = []
        one = self.ring.one()
        minus_one = -one
        monomials: dict = {}  # shared by the coefficients of this one call
        for indices, coeff in self.ordered_terms():
            body = "∧".join([names[i - 1] for i in indices])
            text = coeff.render(monomials) if isinstance(coeff, Polynomial) else str(coeff)
            if not indices:
                pieces.append(text)
            elif coeff == one:
                pieces.append(body)
            elif coeff == minus_one:
                pieces.append("-" + body)
            else:
                if " " in text:  # multi-term polynomial coefficient
                    text = f"({text})"
                pieces.append(f"{text}*{body}")
        return join_signed(pieces)

    def __repr__(self):
        kind = type(self).__name__
        return f"{kind}(dim={self.dim}, terms={{{', '.join(f'{i}: {c}' for i, c in self.ordered_terms())}}})"


class GradedForm(_Alternating):
    """Element of the exterior algebra over the dual basis; may mix degrees."""


class GradedVector(_Alternating):
    """Element of the exterior algebra over the basis multivectors."""

