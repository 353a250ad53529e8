"""Standard charts of the real projective blowup of a coordinate block.

The blowup replaces the origin of the blown coordinate block with the
projective space of its directions.  In the chart attached to blown
variable x_c the blowdown map reads

    x_c -> x~_c,    x_v -> x~_c * x~_v   (v blown, v != c),

with every unblown (base) variable fixed.  The divisor in this chart is
{x~_c = 0}.  Blown variables are renamed with a tilde; base variables keep
their names.  Pullback of polynomials and forms, and the lift of vector
fields vanishing at the blown origin, are all exact.  A form pullback keeps
the coefficient type, so chart forms are pulled back as one integer multiple
over one scale, which rendering reads coefficient by coefficient.
Both chart routes evaluate chart polynomials in integers at points over one
denominator (`integer_terms`, `integer_value`, `nonzero_at`), in the chart
that `preferred_chart` picks for a direction.
"""

from __future__ import annotations

import re
from operator import add
from typing import Sequence

from .errors import DomainError, InternalError, StructureError
from .exterior import GradedForm, index_bit
from .rings import Polynomial, PolyRing, Rational, add_term

_NAME_RE = re.compile(r"([A-Za-z]+)(.*)")


def tilde_name(name: str) -> str:
    match = _NAME_RE.match(name)
    if not match:
        return name + "~"
    return f"{match.group(1)}~{match.group(2)}"


def preferred_chart(values: Sequence[Rational]) -> int:
    """Chart policy: largest |component|, ties broken by smallest index."""
    best = max(range(len(values)), key=lambda i: (abs(values[i]), -i))
    return best + 1


def integer_terms(*polys: dict) -> list[list[tuple[int, tuple[int, ...], int]]]:
    """For each polynomial's terms, (c, e, pad) per term, padded to their
    highest total degree top.  `integer_value` of one polynomial's terms at
    p and q is q^top times its value at p/q, an int for int coefficients, so
    it is zero exactly when the polynomial is, and values of polynomials
    compiled together share that factor."""
    top = max((sum(e) for terms in polys for e in terms), default=0)
    return [[(c, e, top - sum(e)) for e, c in terms.items()] for terms in polys]


def integer_value(compiled, nums: Sequence[int], q: int) -> int:
    """sum c * nums^e * q^pad over compiled terms."""
    total = 0
    for c, exps, pad in compiled:
        for n, e in zip(nums, exps):
            if e:
                c *= n**e
        total += c * q**pad
    return total


def nonzero_at(compiled, nums: Sequence[int], q: int) -> bool:
    """Whether some polynomial of `compiled`, a list of `integer_terms`
    results, is nonzero at nums / q (q > 0)."""
    return any(integer_value(terms, nums, q) for terms in compiled)


class BlowupChart:
    """Chart U_chart of the blowup at the origin of the blown variables."""

    __slots__ = ("ring", "chart", "blown", "chart_ring", "_base_columns", "_blown_mask")

    def __init__(self, ring: PolyRing, chart: int, blown=None):
        m = len(ring.vars)
        blown = tuple(blown) if blown is not None else tuple(range(1, m + 1))
        if len(set(blown)) != len(blown) or any(not 1 <= v <= m for v in blown):
            raise DomainError(f"invalid blown variable set {blown}")
        if chart not in blown:  # so no blown set is empty
            raise DomainError(f"chart index {chart} is not a blown variable")
        self.ring = ring
        self.chart = chart
        self.blown = tuple(sorted(blown))
        self._base_columns = [col for col in range(m) if col + 1 not in self.blown]
        self._blown_mask = sum(index_bit(v) for v in self.blown)
        names = tuple(
            tilde_name(name) if (pos + 1) in self.blown else name
            for pos, name in enumerate(ring.vars)
        )
        self.chart_ring = PolyRing(names)

    def _pull_exponents(self, exps: tuple, extra: int = 0) -> tuple:
        """x^a -> x~^e (times x~_chart^extra): the chart exponent becomes the
        total degree in the blown variables, every other one is unchanged."""
        col = self.chart - 1
        degree = sum(exps) - sum([exps[base] for base in self._base_columns])
        return exps[:col] + (degree + extra,) + exps[col + 1 :]

    def pull_polynomial(self, poly: Polynomial) -> Polynomial:
        if poly.vars != self.ring.vars:
            raise StructureError("polynomial does not live on the ambient ring")
        # the exponent map is injective, so no two monomials meet
        terms = {self._pull_exponents(e): c for e, c in poly.terms.items()}
        return Polynomial._trusted(self.chart_ring.vars, terms)

    def _pull_basis_form(self, mask: int) -> tuple[int, list]:
        """p* dx_I as k and (index mask, sign, exponent shift) terms, each times u^k.

        Each blown dx_v (v != c) pulls back to u dx~_v + x~_v du with
        u = x~_c.  The term keeping every dx~_v carries u^k, k the number of
        such v in I, and no shift; when dx_c is not in I already, each one of
        them may instead become x~_v du, which carries u^(k-1) x~_v, the shift
        u^-1 x~_v.  Putting dx_c in place of dx_v gives the mask I ^ bit(v) |
        bit(c), signed by the parity of the indices of I strictly between c, v.
        """
        c = index_bit(self.chart)
        moved = mask & self._blown_mask & ~c
        terms = [(mask, 1, None)]
        bits = 0 if mask & c else moved
        while bits:
            v = bits & -bits
            bits ^= v
            shift = [0] * len(self.ring.vars)
            shift[self.chart - 1], shift[v.bit_length() - 1] = -1, 1
            rest = mask ^ v
            sign = -1 if (rest & ((c - 1) ^ (v - 1))).bit_count() & 1 else 1
            terms.append((rest | c, sign, tuple(shift)))
        return moved.bit_count(), terms

    def pull_form(self, form: GradedForm) -> GradedForm:
        """p* of a polynomial-coefficient form, one monomial term at a time.

        The blowdown is monomial, so coeff * x^a dx_I pulls back to a sum of
        monomial terms read off the exponents and the index set alone; the
        coefficients are only negated and added, so ints stay ints."""
        if form.ring != self.ring:
            raise StructureError("form does not live over the ambient ring")
        m = len(self.ring.vars)
        if form.dim != m:
            raise StructureError("form dimension does not match the ambient ring")
        out: dict[int, dict] = {}
        for mask, poly in form.terms.items():
            k, basis = self._pull_basis_form(mask)
            pulled = [(self._pull_exponents(e, k), coeff) for e, coeff in poly.terms.items()]
            for target, sign, shift in basis:
                bucket = out.setdefault(target, {})
                get = bucket.get
                for exps, coeff in pulled:
                    key = exps if shift is None else tuple(map(add, exps, shift))
                    bucket[key] = get(key, 0) + coeff if sign > 0 else get(key, 0) - coeff
        names = self.chart_ring.vars
        terms = {}
        for mask, bucket in out.items():
            nonzero = {e: c for e, c in bucket.items() if c}
            if nonzero:
                terms[mask] = Polynomial._trusted(names, nonzero)
        return GradedForm._trusted(m, self.chart_ring, terms)

    def lift_vector_field(self, coefficients) -> tuple[Polynomial, ...]:
        """Lift sum_j a_j d/dx_j through the blowdown, requiring a_j(0) = 0.

        Valid when every variable is blown (blowup at the origin of the whole
        space).  The lifted coefficient of the divisor direction is p*(a_c);
        for k != c it is (p*(a_k) - x~_k p*(a_c)) / x~_c, whose exactness is
        verified rather than assumed: the terms are combined and divided
        directly, and a term not divisible by x~_c raises.
        """
        m = len(self.ring.vars)
        if self.blown != tuple(range(1, m + 1)):
            raise DomainError("vector field lifting requires blowing up every variable")
        coeffs = [self.ring.coerce(a) for a in coefficients]
        if len(coeffs) != m:
            raise StructureError("need one coefficient per coordinate direction")
        for a in coeffs:
            if a.constant_value():
                raise DomainError("vector field must vanish at the blown origin")
        col = self.chart - 1
        pulled = [self.pull_polynomial(a) for a in coeffs]
        lifted = []
        for k, poly in enumerate(pulled):
            terms = poly.terms
            if k != col:
                # p*(a_k) - x~_k p*(a_c), then every exponent of x~_c lowered by one
                terms = dict(terms)
                for e, coeff in pulled[col].terms.items():
                    add_term(terms, e[:k] + (e[k] + 1,) + e[k + 1 :], -coeff)
                if any(not e[col] for e in terms):
                    raise InternalError("lift of a vanishing vector field was not polynomial")
                terms = {e[:col] + (e[col] - 1,) + e[col + 1 :]: c for e, c in terms.items()}
            lifted.append(Polynomial._trusted(poly.vars, terms))
        if lifted[col] and lifted[col].valuation(self.chart) < 1:
            raise InternalError("lifted field is not tangent to the divisor")
        return tuple(lifted)
