"""Spinors of polynomial Poisson bivectors and their behaviour under blowup.

The graph of a bivector pi admits the mixed-degree spinor e^{i_pi} lambda
for a volume form lambda.  Pulling that spinor back through a blowup chart
and reading off the divisor-adic vanishing order decides liftability: the
lift exists precisely when the order is constant along the divisor, and it
is the graph of a bivector again precisely when that order is one less than
the number of blown directions.  Everything here is exact; the nonvanishing
of a leading form is either certified syntactically, falsified by an explicit
rational divisor point, or reported as undetermined, never guessed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence

from .charts import BlowupChart, integer_terms, nonzero_at, preferred_chart
from .classify import ClassificationVerdict, classify_constant_height
from .errors import DisagreementError, DomainError, StructureError
from .exterior import GradedForm, GradedVector, wedge_sign
from .liealg import Covector, LieAlgebra, sampled_covectors
from .linalg import integer_multiple
from .rings import Polynomial, PolyRing
from .sampling import DEFAULT_SEED, ZERO, point_stream


def coordinate_ring(n: int, base: Sequence[str] = ()) -> PolyRing:
    return PolyRing(tuple(f"x{i}" for i in range(1, n + 1)) + tuple(base))


def linear_poisson(L: LieAlgebra) -> tuple[GradedVector, int]:
    """The fibrewise-linear Poisson bivector on the dual, pi_ij = sum_k c_ijk x_k,
    as (D pi, D): a degree-2 `GradedVector` over the coordinate ring with
    int coefficients, read off the algebra's integer table, and its scale D.

    Its bracket on coordinate functions reproduces the Lie bracket:
    {x_i, x_j} = sum_k c_ijk x_k.
    """
    ring = coordinate_ring(L.dim)
    units = [tuple(int(k == j) for k in range(L.dim)) for j in range(L.dim)]
    entries = {
        pair: Polynomial._trusted(ring.vars, {e: c for e, c in zip(units, vec) if c})
        for pair, vec in L._table.items()
    }
    return GradedVector(L.dim, ring, entries), L._scale


def shared_linear_poisson(L: LieAlgebra) -> tuple[GradedVector, int]:
    """`linear_poisson(L)`, built once per algebra."""
    return L.memo("linear_poisson", lambda: linear_poisson(L))


def spinor(pi: GradedVector, scale: int = 1) -> GradedForm:
    """S e^{i_(pi/scale)} lambda, lambda = dx_1 ... dx_m, S = scale^(m // 2): for
    pi with int coefficients, that spinor over one scale, in ints.  For J of
    even size 2k with complement I, the coefficient of dx_I is sign(J I)
    Pf(pi_JJ) scale^(m // 2 - k), the `wedge_sign` of the masks of J and I;
    each Pfaffian is expanded along min J, the lowest bit of J, over the
    nonzero smaller ones."""
    if not (isinstance(pi, GradedVector) and isinstance(pi.ring, PolyRing)):
        raise StructureError("spinor expects a GradedVector over a PolyRing")
    if pi.dim != len(pi.ring.vars):
        raise StructureError("spinor needs one ring variable per dimension")
    if any(mask.bit_count() != 2 for mask in pi.terms):
        raise DomainError("spinor expects a homogeneous degree-2 vector")
    # each pair a < b as the bits of a and b, its exponent tuples packed into
    # ints of `width` bits per variable so that exponents add as ints: none in
    # a Pfaffian passes m // 2 times the largest exponent of an entry
    top = max((max(e) for p in pi.terms.values() for e in p.terms), default=0)
    width = (pi.dim // 2 * top).bit_length()
    pack = lambda e: sum([x << width * i for i, x in enumerate(e)])  # noqa: E731
    entries = [(ab & -ab, ab & (ab - 1), [(pack(e), c) for e, c in p.terms.items()])
               for ab, p in pi.terms.items()]
    level = pfaffians = {0: {0: 1}}
    while level:
        grown: dict[int, dict] = {}
        for rest, pf in level.items():
            for a, b, entry in entries:
                if rest & ((a << 1) - 1 | b):  # a must lie below min J, b outside J
                    continue
                below = (rest & (b - 1)).bit_count()  # b sits at position 2 + below in J
                acc = grown.setdefault(rest | a | b, {})
                for e1, c1 in entry:
                    c1 = -c1 if below & 1 else c1
                    for e2, c2 in pf.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        level = {J: pf for J, acc in grown.items() if (pf := {e: c for e, c in acc.items() if c})}
        pfaffians.update(level)
    full, mask, terms = (1 << pi.dim) - 1, (1 << width) - 1, {}
    unpack = {e: tuple([e >> width * i & mask for i in range(pi.dim)])
              for pf in pfaffians.values() for e in pf}
    for J, pf in pfaffians.items():
        lift = wedge_sign(J, full ^ J) * scale ** (pi.dim // 2 - J.bit_count() // 2)
        coeffs = {unpack[e]: lift * c for e, c in pf.items()}
        terms[full ^ J] = Polynomial._trusted(pi.ring.vars, coeffs)
    return GradedForm._trusted(pi.dim, pi.ring, terms)


def differential_names(ring: PolyRing) -> tuple[str, ...]:
    """The names d<var> of a ring's coordinate differentials."""
    return tuple("d" + v for v in ring.vars)


def hamiltonian_field(pi: GradedVector, i: int) -> tuple[Polynomial, ...]:
    """pi^sharp dx_i, the field with j-component pi_{ij}."""
    return tuple(pi.coefficient((i, j)) for j in range(1, pi.dim + 1))


class ChartForm(NamedTuple):
    """A form in blowup-chart coordinates; the divisor is {chart variable = 0}.

    The form is `integer_form` over the positive int `scale`: the orders,
    the leading form and the rendering read the int coefficients and the
    scale as they are, and `form` divides, for library callers."""

    integer_form: GradedForm
    chart: int
    scale: int = 1

    @property
    def ring(self) -> PolyRing:
        return self.integer_form.ring

    @property
    def form(self) -> GradedForm:
        form = self.integer_form
        return form if self.scale == 1 else form.scale(Fraction(1, self.scale))

    def render(self) -> str:
        return self.integer_form.render(differential_names(self.ring), self.scale)


def blowup_pullback(
    form: GradedForm, chart: int, blown: Sequence[int] | None = None, scale: int = 1
) -> ChartForm:
    """Pull the ambient polynomial form form / scale back through the blowdown
    of chart `chart`, as a `ChartForm` over the same scale.

    The blowdown x_c -> x~_c, x_v -> x~_c x~_v, with
    dx_v -> x~_c dx~_v + x~_v dx~_c, is monomial, so each term is mapped by
    rewriting its exponents and indices; unblown (base) variables and their
    differentials are left untouched, and int coefficients stay ints.
    """
    if not isinstance(form.ring, PolyRing):
        raise StructureError("blowup pullback needs polynomial coefficients")
    return ChartForm(BlowupChart(form.ring, chart, blown).pull_form(form), chart, scale)


def shared_pullback(L: LieAlgebra, chart: int) -> ChartForm:
    """The spinor of the linear Poisson bivector of L pulled back through
    chart `chart` of the origin blowup, built once per algebra and chart
    from one integer spinor."""

    def integer_spinor():
        pi, scale = shared_linear_poisson(L)
        return spinor(pi, scale), scale ** (L.dim // 2)

    phi, scale = L.memo("spinor", integer_spinor)
    return L.memo(("pullback", chart), lambda: blowup_pullback(phi, chart, scale=scale))


def shared_parts(L: LieAlgebra, chart: int) -> list[tuple[int, dict[int, dict]]]:
    """`_by_order` of `shared_pullback(L, chart)`, grouped once per algebra
    and chart for both the vanishing order and the line-order table."""
    return L.memo(("parts", chart), lambda: _by_order(shared_pullback(L, chart)))


# -- vanishing order along the divisor ----------------------------------------


def _sign_definite_reason(poly: Polynomial) -> str | None:
    """Syntactic nonvanishing certificate for a polynomial on real points."""
    if poly.is_constant():
        return "nonzero constant"
    if not poly.constant_value():
        return None
    if any(e % 2 for exps in poly.terms for e in exps):
        return None
    coeffs = poly.terms.values()
    if all(c > 0 for c in coeffs):
        return "positive even monomials plus positive constant"
    if all(c < 0 for c in coeffs):
        return "negative even monomials plus negative constant"
    return None


class OrderCertificate(NamedTuple):
    """Divisor-adic vanishing order with a nonvanishing verdict for the leading form.

    status is "certified" (a syntactic certificate proves the restricted
    leading form vanishes nowhere on this chart's divisor), "falsified"
    (witness_point is an explicit rational divisor point killing every
    coefficient), or "undetermined".
    """

    chart: int
    order: int
    leading: ChartForm
    status: str
    certificate: str | None = None
    witness_point: tuple[Fraction, ...] | None = None


def _by_order(cf: ChartForm) -> list[tuple[int, dict[int, dict]]]:
    """The integer chart form's monomials grouped by their exponent k of the
    chart variable u, as parts (k, {mask: terms}), lowest k first.  The first
    k is the vanishing order, and the first part with u zeroed the leading
    form: u^(-order) times the form, restricted to the divisor."""
    col = cf.chart - 1
    parts: dict[int, dict[int, dict]] = {}
    for mask, poly in cf.integer_form.terms.items():
        for exps, coeff in poly.terms.items():
            parts.setdefault(exps[col], {}).setdefault(mask, {})[exps] = coeff
    return sorted(parts.items(), key=lambda part: part[0])


def _divisor_points(cf: ChartForm, seed: int, samples: int):
    """Up to `samples` chart points on the divisor {chart var = 0}, the free
    coordinates drawn from the seeded point stream."""
    col = cf.chart - 1
    for values in itertools.islice(point_stream(len(cf.ring.vars) - 1, seed), samples):
        yield values[:col] + (ZERO,) + values[col:]


def vanishing_order(
    cf: ChartForm, seed: int = DEFAULT_SEED, samples: int = 200, parts=None
) -> OrderCertificate:
    """Vanishing order and leading form along the divisor, with a syntactic
    nonvanishing certificate, a rational divisor zero, or neither.  Divisor
    points have u = 0, so the zero test compiles the leading form, u zeroed;
    `parts` is `_by_order(cf)` when the caller has it already."""
    if samples < 1:
        raise DomainError("samples must be positive")
    if cf.integer_form.is_zero():
        raise DomainError("the zero form has no vanishing order")
    order, part = (parts or _by_order(cf))[0]
    col = cf.chart - 1
    zeroed = [{e[:col] + (0,) + e[col + 1 :]: c for e, c in terms.items()} for terms in part.values()]
    polys = {mask: Polynomial._trusted(cf.ring.vars, terms) for mask, terms in zip(part, zeroed)}
    form = GradedForm._trusted(cf.integer_form.dim, cf.ring, polys)
    leading = ChartForm(form, cf.chart, cf.scale)
    undetermined = OrderCertificate(cf.chart, order, leading, "undetermined")

    for indices, poly in leading.integer_form.ordered_terms():
        if reason := _sign_definite_reason(poly):
            names = differential_names(cf.ring)
            where = "∧".join(names[i - 1] for i in indices) if indices else "1"
            certificate = f"coefficient of {where}: {reason}"
            return undetermined._replace(status="certified", certificate=certificate)

    compiled = integer_terms(*zeroed)
    for point in _divisor_points(cf, seed, samples):
        q, nums = integer_multiple(point)
        if not nonzero_at(compiled, nums, q):
            return undetermined._replace(status="falsified", witness_point=point)
    return undetermined


# -- order along a projective line ---------------------------------------------


def _line_table(parts) -> list[tuple[int, list]]:
    """The parts of a chart form (`_by_order`), lowest k first, as (k,
    compiled part) pairs; one `integer_terms` call compiles every part."""
    compiled = iter(integer_terms(*(terms for _, part in parts for terms in part.values())))
    return [(k, [next(compiled) for _ in part]) for k, part in parts]


def _order_on_line(table, x: tuple[int, ...], chart: int) -> int:
    """The t-adic order of a chart form restricted to the line through the
    integer direction x (x_chart != 0), where x~_chart = t and x~_j =
    x_j / x_chart: the least k whose part in the form's line-order table is
    nonzero at x over powers of x_chart, so at the ratios (u = 1 there)."""
    q = x[chart - 1]
    for k, compiled in table:
        if nonzero_at(compiled, x, q):
            return k
    raise DomainError("the restriction to this line vanishes identically")


# -- lift verdict ---------------------------------------------------------------


class LiftVerdict(NamedTuple):
    """Certified liftability outcome with its cross-check against the spinor.

    kind: "lifts_as_poisson" (constant height 0), "lifts_as_dirac_only"
    (constant height k >= 1), or "does_not_lift" (the classification carries
    witness covectors of distinct heights).  expected_order is dim - 1 - k
    for a constant height k (None otherwise), and spinor_agreement says
    whether the chart certificates confirm the classification ("confirmed")
    or leave it open ("unconfirmed").
    """

    kind: str
    classification: ClassificationVerdict
    certificates: dict[int, OrderCertificate]
    expected_order: int | None
    spinor_agreement: str


def lift_verdict(L: LieAlgebra, seed: int = DEFAULT_SEED, samples: int = 200) -> LiftVerdict:
    """Decide liftability via the structural classifier and cross-check the
    spinor vanishing orders against it; disagreement raises, since the two
    routes must coincide."""
    classification = classify_constant_height(L, seed=seed)
    certificates = {
        chart: vanishing_order(shared_pullback(L, chart), seed, samples, shared_parts(L, chart))
        for chart in range(1, L.dim + 1)
    }

    if classification.constant_height is not None:
        k = classification.constant_height
        expected = L.dim - 1 - k
        spinor_status = "confirmed"
        for chart, cert in certificates.items():
            if cert.status == "certified" and cert.order == expected:
                continue
            if cert.status == "undetermined":
                spinor_status = "unconfirmed"
                continue
            raise DisagreementError(
                f"classifier gives constant height {k} (order {expected}) but "
                f"chart {chart} reports order {cert.order} with status {cert.status}"
            )
        kind = "lifts_as_poisson" if k == 0 else "lifts_as_dirac_only"
        return LiftVerdict(kind, classification, certificates, expected, spinor_status)

    statuses = {cert.status for cert in certificates.values()}
    orders = {cert.order for cert in certificates.values()}
    if statuses == {"certified"} and len(orders) == 1:
        raise DisagreementError(
            "classifier found height witnesses but every chart certifies a "
            f"constant vanishing order {orders.pop()}"
        )
    spinor_status = (
        "confirmed" if "falsified" in statuses or len(orders) > 1 else "unconfirmed"
    )
    return LiftVerdict("does_not_lift", classification, certificates, None, spinor_status)


# -- cross-oracle suites ----------------------------------------------------------


class LineOrderRecord(NamedTuple):
    xi: Covector
    chart: int
    order: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.order == self.expected


class LineOrderReport(NamedTuple):
    samples: int
    records: tuple[LineOrderRecord, ...]
    mismatches: tuple[LineOrderRecord, ...]


def check_line_orders(
    L: LieAlgebra, samples: int = 200, seed: int = DEFAULT_SEED
) -> LineOrderReport:
    """Primary cross-oracle identity: for each sampled covector, the t-adic
    order of the line-restricted pullback spinor equals dim - 1 - height."""
    records = []
    for sample in sampled_covectors(L, samples, seed):
        # x is a positive multiple of xi: the same chart and line
        chart = preferred_chart(sample.x)
        table = L.memo(("line_table", chart), lambda: _line_table(shared_parts(L, chart)))
        got = _order_on_line(table, sample.x, chart)
        want = L.dim - 1 - sample.invariants.height
        records.append(LineOrderRecord(sample.xi, chart, got, want))
    records = tuple(records)
    mismatches = tuple(r for r in records if not r.ok)
    return LineOrderReport(samples, records, mismatches)
