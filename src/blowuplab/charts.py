"""Standard charts of the real projective blowup of a coordinate block.

The blowup replaces the origin of the blown coordinate block with the
projective space of its directions.  In the chart attached to blown
variable x_c the blowdown map reads

    x_c -> x~_c,    x_v -> x~_c * x~_v   (v blown, v != c),

with every unblown (base) variable fixed.  The divisor in this chart is
{x~_c = 0}.  Blown variables are renamed with a tilde; base variables keep
their names.  Pullback of polynomials and forms, and the lift of vector
fields vanishing at the blown origin, are all exact.
"""

from __future__ import annotations

import re

from .errors import DomainError, InternalError, StructureError
from .exterior import GradedForm
from .rings import Polynomial, PolyRing

_NAME_RE = re.compile(r"([A-Za-z]+)(.*)")


def tilde_name(name: str) -> str:
    match = _NAME_RE.match(name)
    if not match:
        return name + "~"
    return f"{match.group(1)}~{match.group(2)}"


class BlowupChart:
    """Chart U_chart of the blowup at the origin of the blown variables."""

    __slots__ = ("ring", "chart", "blown", "chart_ring", "_poly_images", "_form_images")

    def __init__(self, ring: PolyRing, chart: int, blown=None):
        m = len(ring.vars)
        blown = tuple(blown) if blown is not None else tuple(range(1, m + 1))
        if len(set(blown)) != len(blown) or any(not 1 <= v <= m for v in blown):
            raise DomainError(f"invalid blown variable set {blown}")
        if len(blown) < 1:
            raise DomainError("at least one variable must be blown up")
        if chart not in blown:
            raise DomainError(f"chart index {chart} is not a blown variable")
        self.ring = ring
        self.chart = chart
        self.blown = tuple(sorted(blown))
        names = tuple(
            tilde_name(name) if (pos + 1) in self.blown else name
            for pos, name in enumerate(ring.vars)
        )
        self.chart_ring = PolyRing(names)
        divisor_var = self.chart_ring.variable(chart)
        images = []
        for pos in range(1, m + 1):
            if pos == chart:
                images.append(divisor_var)
            elif pos in self.blown:
                images.append(divisor_var * self.chart_ring.variable(pos))
            else:
                images.append(self.chart_ring.variable(pos))
        self._poly_images = images
        self._form_images = [
            GradedForm(m, self.chart_ring, {(k,): img.diff(k) for k in range(1, m + 1)})
            for img in images
        ]

    def pull_polynomial(self, poly: Polynomial) -> Polynomial:
        if poly.vars != self.ring.vars:
            raise StructureError("polynomial does not live on the ambient ring")
        return poly.substitute(self._poly_images)

    def pull_form(self, form: GradedForm) -> GradedForm:
        """p* of a polynomial-coefficient form: substitute coefficients and
        expand each basis one-form by the product rule."""
        if form.ring != self.ring:
            raise StructureError("form does not live over the ambient ring")
        m = len(self.ring.vars)
        if form.dim != m:
            raise StructureError("form dimension does not match the ambient ring")
        result = GradedForm.zero(m, self.chart_ring)
        for indices, coeff in form.terms.items():
            piece = GradedForm(m, self.chart_ring, {(): self.pull_polynomial(coeff)})
            for j in indices:
                piece = piece.wedge(self._form_images[j - 1])
            result = result + piece
        return result

    def lift_vector_field(self, coefficients) -> tuple[Polynomial, ...]:
        """Lift sum_j a_j d/dx_j through the blowdown, requiring a_j(0) = 0.

        Valid when every variable is blown (blowup at the origin of the whole
        space).  The lifted coefficient of the divisor direction is p*(a_c);
        for k != c it is (p*(a_k) - x~_k p*(a_c)) / x~_c, whose exactness is
        verified rather than assumed.
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
        c = self.chart
        pulled = [self.pull_polynomial(a) for a in coeffs]
        lifted = []
        for k in range(1, m + 1):
            if k == c:
                lifted.append(pulled[c - 1])
                continue
            numerator = pulled[k - 1] - self.chart_ring.variable(k) * pulled[c - 1]
            try:
                lifted.append(numerator.shift_down(c, 1))
            except DomainError as exc:
                raise InternalError(
                    f"lift of a vanishing vector field was not polynomial: {exc}"
                ) from exc
        if lifted[c - 1] and lifted[c - 1].valuation(c) < 1:
            raise InternalError("lifted field is not tangent to the divisor")
        return tuple(lifted)
