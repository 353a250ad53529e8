"""Reference paths the program no longer runs, kept for the tests to compare with.

`substitute` is the pullback as first written (substitute into every
coefficient) and `diff` the partial derivative the Poisson-bracket checks
apply; `term` builds one basis term of a form or multivector.
`restrict_zero` sets one variable to zero, and `evaluate` gives a
polynomial's value at a rational point; `rational_chains` and
`distribution_rows` are the rational per-covector kernels (the wedge chains
of xi and d xi, the evaluated divisor distribution) that the program now
runs in integers on the primitive integer multiple of the covector.
`line_order` and `distribution_at` run the program's per-sample kernels
(the line-order table of a chart form, the integer distribution rank) on
any chart form or direction, as the commands run them on the primitive
integer multiples of the sampled covectors.  `reference_leading_form`,
`reference_line_table` and `reference_order_on_line` are the leading form
and the line-order table as they were built before the program read both
off one grouping of the chart form by u-exponent, and `zeroed_leading_part`
is that grouping's first part with u zeroed, which the program's divisor
zero test compiles; `perturbed_orders` compares leading parts through it.
`shift_down` divides exactly by a power of one variable, `polynomial_lift`
is the lift of a vector field through a chart in `Polynomial` arithmetic,
`bucketed_line_order` the line order that buckets and compiles a chart
form's monomials for every direction, and `integer_differential` the
integer d x that the height kernel once built through `ce_differential`;
the program now lifts on term dicts, reads line orders off one compiled
table per chart and takes d xi from the pairing matrix.
`det` is the exact determinant, `reference_rref_basis` the rational
Gauss-Jordan loop, `reference_jacobi_check` the Jacobi check through the
general bracket, and `volume_form` the standard volume form that
`exp_interior` inserts into; the program derives definiteness, the reduced
echelon basis, the Jacobi defects and the spinor without them.
`rational_table` is the algebra's table of stated rational constants, and
`fraction_linear_poisson`, `integral_form`, `fraction_spinor`,
`fraction_killing_form` and `fraction_jacobi_check` are the Fraction paths
the program ran on it before it kept one integer table D c and its scale D:
the bivector, the conversion of a form to (D, D form), the spinor divided
per term, the Killing form and the Jacobi check in rational arithmetic;
`divided` is an integer form over its scale with Fraction coefficients.

`_merge_sign` and `_sort_indices` are the shuffle sign and the sorting sign
on increasing index tuples, as the exterior algebra computed them before its
terms were keyed by index masks.

`polynomial_init`, `polynomial_add` and `polynomial_render` are the bodies of
`Polynomial.__init__`, `__add__` and `render`, and `alternating_init`,
`alternating_add` and `alternating_render` those of the graded forms, as
they were before both classes added terms through `rings.add_term` and
printed sums through `rings.join_terms`: each with its own accumulation
loop, its own comparison of a coefficient with +-scale and `join_signed`.
They are copied verbatim, as functions of `self`, except that
`alternating_render` prints polynomial coefficients through
`polynomial_render`; `old_polynomial` and `old_form` build an instance
through the old constructor.

Insertion of multivectors follows the convention i_{X wedge Y} = i_Y i_X, so
for an increasing tuple (k_1 < ... < k_p) the single insertions are applied
in ascending index order.  The insertions run on index tuples read off
`ordered_terms()` and build their result through the validating
constructor, independently of the program's index masks.  The series of
insertions `exp_interior` is what `poisson_spinor.spinor` reads off
principal Pfaffians instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import add
from typing import Mapping, Sequence

from blowuplab import (
    RATIONALS,
    ChartForm,
    DomainError,
    LieAlgebra,
    PolyRing,
    Polynomial,
    StructureError,
    blowup_pullback,
    ce_differential,
    covector_form,
    hamiltonian_field,
    linear_poisson,
    spinor,
)
from blowuplab.blowup_geometry import _distribution_rank
from blowuplab.charts import BlowupChart, integer_terms, integer_value, nonzero_at
from blowuplab.charts import preferred_chart
from blowuplab.exterior import GradedForm, GradedVector, IndexTuple, _indices_mask
from blowuplab.exterior import wedge_sign
from blowuplab.linalg import _eliminate, integer_multiple, primitive
from blowuplab.poisson_spinor import _by_order, _divisor_points, _line_table, _order_on_line
from blowuplab.poisson_spinor import coordinate_ring
from blowuplab.rings import CoeffRing, Rational, format_rational
from blowuplab.sampling import DEFAULT_SEED


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


def term(cls, dim: int, indices, coeff=1, ring=RATIONALS):
    """coeff times the basis element `indices` of a GradedForm or GradedVector."""
    return cls(dim, ring, {tuple(indices): coeff})


def diff(poly: Polynomial, position: int) -> Polynomial:
    """The partial derivative in variable `position` (1-based)."""
    col = position - 1
    out = {}
    for exps, coeff in poly.terms.items():
        if exps[col]:
            new = list(exps)
            new[col] -= 1
            out[tuple(new)] = coeff * exps[col]
    return Polynomial._trusted(poly.vars, out)


def restrict_zero(poly: Polynomial, position: int) -> Polynomial:
    """Set variable `position` (1-based) to zero."""
    col = position - 1
    return Polynomial._trusted(poly.vars, {e: c for e, c in poly.terms.items() if e[col] == 0})


def evaluate(poly: Polynomial, values) -> Fraction:
    """The value of poly at a point, one rational value per variable."""
    assert len(values) == len(poly.vars)
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        for value, e in zip(values, exps):
            coeff *= Fraction(value) ** e
        total += coeff
    return total


def rational_chains(L: LieAlgebra, xi) -> tuple[int, int]:
    """(k, r): the largest k with xi ^ (d xi)^k != 0 and the largest r with
    (d xi)^r != 0, by wedging the rational forms xi and d xi."""
    form = covector_form(L, xi)
    omega = ce_differential(L, form)

    def chain(level: GradedForm) -> int:
        j = 0
        while not (level := level.wedge(omega)).is_zero():
            j += 1
        return j

    return chain(form), chain(GradedForm(L.dim, RATIONALS, {(): 1}))


def distribution_rows(L: LieAlgebra, v) -> tuple[int, list[list[Fraction]]]:
    """(chart, rows) for the divisor distribution at [v]: in the chart c of
    largest |v component|, the lifted Hamiltonian fields of dx_j - (v_j / v_c)
    dx_c, j != c, evaluated at the divisor point v / v_c (entry c zeroed)."""
    v = [Fraction(a) for a in v]
    chart = preferred_chart(v)
    pi = fraction_linear_poisson(L)
    bc = BlowupChart(pi.ring, chart)
    fields = [polynomial_lift(bc, hamiltonian_field(pi, i)) for i in range(1, L.dim + 1)]
    ratios = [a / v[chart - 1] for a in v]
    point = ratios.copy()
    point[chart - 1] = Fraction(0)
    at = [[evaluate(poly, point) for poly in field] for field in fields]
    rows = [
        [a - ratios[j] * b for a, b in zip(at[j], at[chart - 1])]
        for j in range(L.dim)
        if j != chart - 1
    ]
    return chart, rows


def shift_down(poly: Polynomial, position: int, amount: int) -> Polynomial:
    """Divide exactly by ``v_position ** amount``."""
    col = position - 1
    if any(exps[col] < amount for exps in poly.terms):
        raise DomainError(f"{poly} is not divisible by {poly.vars[col]}^{amount}")
    out = {e[:col] + (e[col] - amount,) + e[col + 1 :]: c for e, c in poly.terms.items()}
    return Polynomial._trusted(poly.vars, out)


def polynomial_lift(bc: BlowupChart, coefficients) -> tuple[Polynomial, ...]:
    """The lift of sum_j a_j d/dx_j through a full-blowup chart as first
    written, in `Polynomial` arithmetic: p*(a_c) for the divisor direction,
    (p*(a_k) - x~_k p*(a_c)) / x~_c for k != c."""
    coeffs = [bc.ring.coerce(a) for a in coefficients]
    c = bc.chart
    pulled = [bc.pull_polynomial(a) for a in coeffs]
    return tuple(
        pulled[c - 1]
        if k == c
        else shift_down(pulled[k - 1] - bc.chart_ring.variable(k) * pulled[c - 1], c, 1)
        for k in range(1, len(coeffs) + 1)
    )


def line_order(cf: ChartForm, xi) -> int:
    """t-adic order of a chart form restricted to the line through direction
    xi (xi_chart != 0), where x~_chart = t and x~_j = xi_j / xi_chart: the
    program's line-order kernel on the form's table, at the primitive
    integer multiple of xi."""
    m = len(cf.ring.vars)
    # a full origin blowup renames every chart variable x~i; a partial one
    # keeps the base variables' names
    if not all("~" in name for name in cf.ring.vars):
        raise DomainError("line restriction requires a full origin blowup")
    if len(xi) != m:
        raise StructureError("direction vector has wrong length")
    c = cf.chart
    if xi[c - 1] == 0:
        raise DomainError(f"direction lies outside chart {c} (component {c} is zero)")
    return _order_on_line(_line_table(_by_order(cf)), primitive(xi), c)


def distribution_at(L: LieAlgebra, v) -> int:
    """The rank of the lifted distribution at the divisor point [v]: the
    program's per-sample kernel at the primitive integer multiple of v."""
    if len(v) != L.dim:
        raise StructureError("direction vector length does not match the algebra")
    if not any(v):
        raise DomainError("direction vector must be nonzero")
    return _distribution_rank(L, primitive(v))


def bucketed_line_order(cf: ChartForm, xi) -> int:
    """The line order as first written: per coefficient, the monomials below
    the lowest order found so far are bucketed by their t-exponent, and each
    sample compiles and tests the buckets lowest first."""
    c = cf.chart
    x = primitive(xi)
    lowest = None
    for poly in cf.integer_form.terms.values():
        buckets: dict[int, dict] = {}
        for exps, coeff in poly.terms.items():
            k = exps[c - 1]
            if lowest is None or k < lowest:
                buckets.setdefault(k, {})[exps] = coeff
        for k in sorted(buckets):
            if integer_value(integer_terms(buckets[k])[0], x, x[c - 1]):
                lowest = k
                break
    if lowest is None:
        raise DomainError("the restriction to this line vanishes identically")
    return lowest


def integer_differential(L: LieAlgebra, x) -> GradedForm:
    """D d x for an integer covector x as the height kernel first built it:
    the Chevalley-Eilenberg differential of the rational form x, times the
    lcm D of its denominators, with int coefficients."""
    dx = ce_differential(L, covector_form(L, x))
    ints = integer_multiple(dx.terms.values())[1]
    return GradedForm._trusted(dx.dim, dx.ring, dict(zip(dx.terms, ints)))


def det(matrix) -> Fraction:
    """Exact determinant: after full fraction-free elimination of the
    row-scaled integer matrix, the last pivot is its determinant up to the
    sign of the row swaps."""
    scales, rows = zip(*map(integer_multiple, matrix))
    m = list(rows)
    r, swaps = _eliminate(m, len(m))
    return Fraction((-1) ** swaps * m[-1][-1], prod(scales)) if r == len(m) else Fraction(0)


def reference_rref_basis(rows) -> list[list[Fraction]]:
    """Reduced row-echelon basis of the row space (zero rows dropped), by
    the rational Gauss-Jordan loop the program ran before it read the basis
    off its fraction-free elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for col in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][col]
        m[r] = [x / pivot for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col]:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return [row for row in m[:r]]


def reference_jacobi_check(L: LieAlgebra):
    """The Jacobi check as it was first written: every cyclic term through
    the general bracket, with a unit vector as its second argument."""
    basis = [[Fraction(int(a == b)) for a in range(L.dim)] for b in range(L.dim)]
    violations = []
    for i in range(1, L.dim + 1):
        for j in range(i + 1, L.dim + 1):
            for k in range(j + 1, L.dim + 1):
                defect = [Fraction(0)] * L.dim
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    outer = L.bracket(L.bracket_basis(a, b), basis[c - 1])
                    for m in range(L.dim):
                        defect[m] += outer[m]
                if any(defect):
                    violations.append(((i, j, k), tuple(defect)))
    return violations


def rational_table(L: LieAlgebra) -> dict[tuple[int, int], tuple[Fraction, ...]]:
    """The stored i < j structure constants as the rationals stated, the
    table the program kept before it kept only their integer multiple."""
    return {key: tuple(Fraction(v, L._scale) for v in vec) for key, vec in L._table.items()}


def fraction_linear_poisson(L: LieAlgebra) -> GradedVector:
    """The fibrewise-linear Poisson bivector on the dual: pi_ij = sum_k c_ijk x_k,
    a degree-2 `GradedVector` over the coordinate ring.

    Its bracket on coordinate functions reproduces the Lie bracket:
    {x_i, x_j} = sum_k c_ijk x_k.
    """
    ring = coordinate_ring(L.dim)
    units = [tuple(int(k == j) for k in range(L.dim)) for j in range(L.dim)]
    table = rational_table(L)
    entries = {pair: Polynomial(ring.vars, dict(zip(units, vec))) for pair, vec in table.items()}
    return GradedVector(L.dim, ring, entries)


def integral_form(form: GradedForm | GradedVector) -> tuple[int, GradedForm | GradedVector]:
    """(D, D * form) for a polynomial form or multivector, D the lcm of its
    coefficient denominators; the multiple has int coefficients."""
    scale, ints = integer_multiple([c for p in form.terms.values() for c in p.terms.values()])
    ints = iter(ints)
    polys = {
        I: Polynomial._trusted(p.vars, dict(zip(p.terms, ints)))
        for I, p in form.terms.items()
    }
    return scale, form._trusted(form.dim, form.ring, polys)


def fraction_spinor(pi: GradedVector) -> GradedForm:
    """e^{i_pi} lambda for the standard volume lambda = dx_1 ... dx_m, from the
    principal Pfaffians of pi: for J of even size 2k with complement I, the
    coefficient of dx_I is sign(J I) Pf(pi_JJ), the `wedge_sign` of the masks
    of J and I.  Each Pfaffian is expanded along min J, the lowest bit of J,
    over the nonzero smaller ones, in integers for D pi (D the lcm of the
    coefficient denominators); Pf(D pi_JJ) = D^k Pf(pi_JJ) is divided by
    D^k at the end."""
    if not (isinstance(pi, GradedVector) and isinstance(pi.ring, PolyRing)):
        raise StructureError("spinor expects a GradedVector over a PolyRing")
    if pi.dim != len(pi.ring.vars):
        raise StructureError("spinor needs one ring variable per dimension")
    if any(mask.bit_count() != 2 for mask in pi.terms):
        raise DomainError("spinor expects a homogeneous degree-2 vector")
    scale, integral = integral_form(pi)
    # each pair a < b as the bits of a and b
    entries = [(ab & -ab, ab & (ab - 1), list(p.terms.items())) for ab, p in integral.terms.items()]
    level = pfaffians = {0: {(0,) * len(pi.ring.vars): 1}}
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
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
        level = {J: pf for J, acc in grown.items() if (pf := {e: c for e, c in acc.items() if c})}
        pfaffians.update(level)
    full, terms = (1 << pi.dim) - 1, {}
    for J, pf in pfaffians.items():
        sign, den = wedge_sign(J, full ^ J), scale ** (J.bit_count() // 2)
        coeffs = {e: Fraction(sign * c, den) for e, c in pf.items()}
        terms[full ^ J] = Polynomial._trusted(pi.ring.vars, coeffs)
    return GradedForm._trusted(pi.dim, pi.ring, terms)


def divided(form: GradedForm, scale: int) -> GradedForm:
    """form / scale for an int-coefficient form, with Fraction coefficients:
    the division the program ran on chart forms before it printed each
    coefficient c / scale without building a Fraction."""
    polys = {
        mask: Polynomial._trusted(p.vars, {e: Fraction(c, scale) for e, c in p.terms.items()})
        for mask, p in form.terms.items()
    }
    return form._trusted(form.dim, form.ring, polys)


def fraction_killing_form(L: LieAlgebra) -> list[list[Fraction]]:
    """B_ij = trace(ad_{b_i} ad_{b_j}), an exact symmetric matrix."""

    def build():
        ads = [L.ad_matrix(i) for i in range(1, L.dim + 1)]
        n = range(L.dim)
        return [[sum((x[a][b] * y[b][a] for a in n for b in n), Fraction(0)) for y in ads]
                for x in ads]

    return build()


def fraction_jacobi_check(L: LieAlgebra) -> list[tuple[tuple[int, int, int], tuple[Fraction, ...]]]:
    """All triples (i, j, k), i<j<k, whose cyclic double brackets fail to cancel.

    Returns the nonzero defect vector [[b_i,b_j],b_k] + [[b_j,b_k],b_i]
    + [[b_k,b_i],b_j] for each violating triple, in triple order; empty
    means the table is a Lie algebra.  The defects are read off d o d, with
    the differential the heights use: the coefficient of theta_ijk in
    d(d theta_m) is the m-th entry of the defect of (i, j, k).
    """
    defects: dict[tuple[int, int, int], list[Fraction]] = {}
    for m in range(L.dim):
        theta = covector_form(L, [int(i == m) for i in range(L.dim)])
        for triple, value in ce_differential(L, ce_differential(L, theta)).ordered_terms():
            defects.setdefault(triple, [Fraction(0)] * L.dim)[m] = value
    return [(triple, tuple(defect)) for triple, defect in sorted(defects.items())]


def substitute(poly: Polynomial, images) -> Polynomial:
    """Replace each variable by the corresponding image polynomial; all
    images live over one variable list, which the result takes."""
    assert len(images) == len(poly.vars)
    target = images[0].vars if images else ()
    assert all(img.vars == target for img in images)
    result = Polynomial._trusted(target, {})
    power_cache: dict[tuple[int, int], Polynomial] = {}
    for exps, coeff in poly.terms.items():
        value = Polynomial._trusted(target, {(0,) * len(target): coeff})
        for pos, e in enumerate(exps):
            if not e:
                continue
            if (pos, e) not in power_cache:
                power_cache[(pos, e)] = images[pos] ** e
            value = value * power_cache[(pos, e)]
        result = result + value
    return result


def volume_form(ring: PolyRing) -> GradedForm:
    """dx_1 ^ ... ^ dx_m over a polynomial ring in m variables."""
    m = len(ring.vars)
    return GradedForm(m, ring, {tuple(range(1, m + 1)): 1})


def _check_insertion(name: str, v, a, degree: int | None = None):
    if not isinstance(v, GradedVector) or not isinstance(a, GradedForm):
        raise StructureError(f"{name} expects (GradedVector, GradedForm)")
    if v.dim != a.dim or v.ring != a.ring:
        raise StructureError(f"{name} operands must share dimension and ring")
    if degree is not None and any(len(indices) != degree for indices, _ in v.ordered_terms()):
        raise DomainError(f"{name} expects a homogeneous degree-{degree} vector")


def _insert_single(index: int, terms: dict) -> dict:
    """Insertion of the basis vector e_index into a term map (degree -1)."""
    out: dict[IndexTuple, object] = {}
    for indices, coeff in terms.items():
        if index not in indices:
            continue
        pos = indices.index(index)
        remaining = indices[:pos] + indices[pos + 1 :]
        value = coeff if pos % 2 == 0 else -coeff
        if remaining in out:
            value = out[remaining] + value
        if not value:
            out.pop(remaining, None)
        else:
            out[remaining] = value
    return out


def interior(v: GradedVector, a: GradedForm) -> GradedForm:
    """Insertion i_v for a degree-1 vector; a graded derivation of degree -1."""
    _check_insertion("interior", v, a, degree=1)
    return multi_interior(v, a)


def multi_interior(w: GradedVector, a: GradedForm) -> GradedForm:
    """Insertion of a multivector: i_{X wedge Y} = i_Y i_X, extended linearly."""
    _check_insertion("multi_interior", w, a)
    total: dict[IndexTuple, object] = {}
    terms = dict(a.ordered_terms())
    for indices, wc in w.ordered_terms():
        current = terms
        for index in indices:  # ascending order realises i_{k_p} ... i_{k_1}
            current = _insert_single(index, current)
            if not current:
                break
        for idx, coeff in current.items():
            value = wc * coeff
            if idx in total:
                value = total[idx] + value
            if not value:
                total.pop(idx, None)
            else:
                total[idx] = value
    return GradedForm(a.dim, a.ring, total)


def exp_interior(pi: GradedVector, lam: GradedForm) -> GradedForm:
    """e^{i_pi} lam = sum_k (1/k!) i_pi^k lam for a bivector pi.

    The series stops at floor(dim/2); the top-degree component of the result
    is lam itself.
    """
    _check_insertion("exp_interior", pi, lam, degree=2)
    result = lam
    power = lam
    for k in range(1, lam.dim // 2 + 1):
        power = multi_interior(pi, power)
        if power.is_zero():
            break
        result = result + power.scale(Fraction(1, factorial(k)))
    return result


def zeroed_leading_part(cf: ChartForm) -> tuple[int, dict]:
    """(order, {mask: terms}): the program's first part of a chart form by
    u-exponent, chart exponent zeroed, as the divisor zero test compiles it.
    A raw part with k > 0 vanishes at every divisor point."""
    order, part = _by_order(cf)[0]
    col = cf.chart - 1
    zeroed = {mask: {e[:col] + (0,) + e[col + 1 :]: c for e, c in t.items()} for mask, t in part.items()}
    return order, zeroed


def perturbed_orders(L: LieAlgebra, w: GradedVector, chart: int, samples: int):
    """(order of pi, order of pi + w, whether both leading forms vanish at the
    same sampled divisor points) for the chart pullbacks of the spinors of
    the linear bivector pi of L and of its perturbation by w."""
    pi, scale = linear_poisson(L)
    top = scale ** (L.dim // 2)
    cf = blowup_pullback(spinor(pi, scale), chart, scale=top)
    order, lead = zeroed_leading_part(cf)
    perturbed = spinor(pi + w.scale(scale), scale)
    order_w, lead_w = zeroed_leading_part(blowup_pullback(perturbed, chart, scale=top))
    base, pert = (integer_terms(*part.values()) for part in (lead, lead_w))
    same = []
    for point in _divisor_points(cf, DEFAULT_SEED, samples):
        q, nums = integer_multiple(point)
        same.append(nonzero_at(base, nums, q) == nonzero_at(pert, nums, q))
    return order, order_w, all(same)


def reference_leading_form(cf: ChartForm) -> tuple[int, GradedForm]:
    """Order = minimal chart-variable valuation over all coefficients; the
    leading form is the divisor restriction of (chart var)^(-order) times the
    integer form: its terms of that valuation, chart exponent zeroed."""
    col = cf.chart - 1
    polys = cf.integer_form.terms
    order = min(poly.valuation(cf.chart) for poly in polys.values())
    terms = {}
    for mask, poly in polys.items():
        kept = {e[:col] + (0,) + e[col + 1 :]: c for e, c in poly.terms.items() if e[col] == order}
        if kept:
            terms[mask] = Polynomial._trusted(poly.vars, kept)
    return order, GradedForm._trusted(cf.integer_form.dim, cf.ring, terms)


def reference_line_table(cf: ChartForm) -> list[tuple[int, list]]:
    """The monomials of each coefficient of the integer chart form grouped
    by their chart exponent k, as (k, compiled group) pairs over every
    coefficient, lowest k first; one `integer_terms` call compiles them all."""
    col = cf.chart - 1
    groups: list[tuple[int, dict]] = []
    for poly in cf.integer_form.terms.values():
        by_exponent: dict[int, dict] = {}
        for exps, coeff in poly.terms.items():
            by_exponent.setdefault(exps[col], {})[exps] = coeff
        groups += by_exponent.items()
    groups.sort(key=lambda group: group[0])
    return list(zip([k for k, _ in groups], integer_terms(*(terms for _, terms in groups))))


def reference_order_on_line(table, x: tuple[int, ...], chart: int) -> int:
    """The least k whose group in a `reference_line_table` is nonzero at
    the integer direction x over powers of x_chart."""
    q = x[chart - 1]
    for k, compiled in table:
        if integer_value(compiled, x, q):
            return k
    raise DomainError("the restriction to this line vanishes identically")


# -- term maps and sums before `add_term` and `join_terms` --------------------


def join_signed(pieces: Sequence[str]) -> str:
    """Join rendered terms into a sum, writing a term's leading "-" as " - ";
    no terms render as "0"."""
    if not pieces:
        return "0"
    out = [pieces[0]]
    for piece in pieces[1:]:
        out.append(" - " + piece[1:] if piece.startswith("-") else " + " + piece)
    return "".join(out)


def polynomial_init(self, variables: Sequence[str], terms: Mapping[tuple, Rational] | None = None):
    self.vars = tuple(variables)
    clean: dict[tuple, Fraction] = {}
    if terms:
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(self.vars) or any(e < 0 for e in exps):
                raise StructureError(f"bad exponent tuple {exps} for variables {self.vars}")
            coeff = RATIONALS.coerce(coeff)
            if coeff:
                acc = clean.get(exps, Fraction(0)) + coeff
                if acc:
                    clean[exps] = acc
                else:
                    clean.pop(exps, None)
    self.terms = clean


def polynomial_add(self, other):
    other = self._coerce(other)
    if other is NotImplemented:
        return NotImplemented
    merged = dict(self.terms)
    for exps, coeff in other.terms.items():
        if exps in merged:
            coeff = merged[exps] + coeff
            if not coeff:
                del merged[exps]
                continue
        merged[exps] = coeff
    return Polynomial._trusted(self.vars, merged)


def polynomial_render(self, monomials: dict, scale: int = 1) -> str:
    """The text of the polynomial over the positive int `scale`.  `monomials`
    maps exponent tuples to their text and is filled as it goes, so
    polynomials rendered together build each monomial's text once."""
    # graded order: total degree first, then lexicographic with earlier
    # variables dominating (so "1 + x2^2 + x3^2" renders in that order):
    # a stable sort on degree alone of the keys in descending order
    names = self.vars
    rendered = []
    for exps in sorted(sorted(self.terms, reverse=True), key=sum):
        coeff = self.terms[exps]
        monomial = monomials.get(exps)
        if monomial is None:
            monomial = monomials[exps] = "*".join(
                [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(exps) if e]
            )
        if not monomial:
            rendered.append(format_rational(coeff, scale))
        elif coeff == scale:
            rendered.append(monomial)
        elif coeff == -scale:
            rendered.append("-" + monomial)
        else:
            rendered.append(f"{format_rational(coeff, scale)}*{monomial}")
    return join_signed(rendered)


def alternating_init(self, dim: int, ring: CoeffRing, terms: Mapping | None = None):
    if dim < 0:
        raise StructureError("dimension must be nonnegative")
    self.dim = dim
    self.ring = ring
    clean: dict[int, object] = {}
    if terms:
        for indices, coeff in terms.items():
            mask, sign = _indices_mask(dim, indices)
            if sign == 0:
                continue
            coeff = ring.coerce(coeff) if sign > 0 else -ring.coerce(coeff)
            if mask in clean:
                coeff = clean[mask] + coeff
            if not coeff:
                clean.pop(mask, None)
            else:
                clean[mask] = coeff
    self.terms = clean


def alternating_add(self, other):
    self._require_compatible(other)
    merged = dict(self.terms)
    for mask, coeff in other.terms.items():
        if mask in merged:
            coeff = merged[mask] + coeff
            if not coeff:
                del merged[mask]
                continue
        merged[mask] = coeff
    return self._trusted(self.dim, self.ring, merged)


def alternating_render(self, names: Sequence[str], scale: int = 1) -> str:
    if len(names) != self.dim:
        raise StructureError("need one basis name per dimension")
    pieces = []
    monomials: dict = {}  # shared by the coefficients of this one call
    for indices, coeff in self.ordered_terms():
        body = "∧".join([names[i - 1] for i in indices])
        poly = isinstance(coeff, Polynomial)
        text = polynomial_render(coeff, monomials, scale) if poly else format_rational(coeff, scale)
        if not indices:
            pieces.append(text)
        elif coeff == scale:
            pieces.append(body)
        elif coeff == -scale:
            pieces.append("-" + body)
        else:
            if " " in text:  # multi-term polynomial coefficient
                text = f"({text})"
            pieces.append(f"{text}*{body}")
    return join_signed(pieces)


def old_polynomial(variables: Sequence[str], terms: Mapping | None = None) -> Polynomial:
    """A `Polynomial` built by `polynomial_init`."""
    self = object.__new__(Polynomial)
    polynomial_init(self, variables, terms)
    return self


def old_form(dim: int, ring: CoeffRing, terms: Mapping | None = None) -> GradedForm:
    """A `GradedForm` built by `alternating_init`."""
    self = object.__new__(GradedForm)
    alternating_init(self, dim, ring, terms)
    return self
