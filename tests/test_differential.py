"""Old-versus-new equality for the height kernel and the chart pullback.

Fast paths replaced slower ones: the Chevalley-Eilenberg differential sums
its terms into one map from cached generator differentials, the exterior
operations and polynomial arithmetic build their results through trusted
constructors, the rank oracle eliminates integer matrices, terms are keyed
by index masks whose shuffle sign counts the bits each index passes (and
sorting one index sequence builds its mask one index at a time, by the same
rule), a blowup chart pulls forms back by rewriting exponents, the line
order tests t-buckets of monomials in integers, the Jacobi check reads its
defects off d o d of the generators, and the spinor e^{i_pi} lambda is read
off integer principal Pfaffians.  Each is checked here against an independent path on
hypothesis-drawn inputs: the term-by-term derivation of d, the validating
public constructors, sympy's rank of the rational restricted pairing, the
substitute-and-wedge and general-bracket bodies the new code replaced, the
tuple merges `_merge_sign` and `_sort_indices` with a set-based inversion
count, and the series of insertions `exp_interior`; `substitute`,
`reference_jacobi_check`, the tuple merges and `exp_interior` are kept in
`tests/reference.py`.
The per-covector kernels run in integers on the primitive integer multiple
of the covector: the wedge chains of the height and of the powers of d xi,
and the evaluated divisor distribution.  They are checked against the
rational chains and the rationally evaluated rows of `tests/reference.py`
on seeded conjugates, with covector entries up to 10^6/10^6.
The height kernel reads d xi off the integer pairing matrix, the lifts of
vector fields are built on term dicts, and the line orders read one
compiled table per chart; they are checked against the integer d x of
`ce_differential`, the `Polynomial`-arithmetic lift and the per-direction
bucketing of `tests/reference.py`, on the same seeded conjugates and on
random vanishing vector fields.
A blowup chart pulls back one integer multiple of a form over one scale,
which rendering prints as c / scale and `ChartForm.form` divides; that path
is checked against `BlowupChart.pull_form` on the rational form, on random
forms over partial blowups and on seeded conjugates' spinors.
An algebra keeps one integer table D c: its spinor over D^(dim // 2), its
Killing matrix D^2 B, its Jacobi defects and its lifted fields D times those
of pi are checked against the Fraction paths of `tests/reference.py`, on
random rational tables and seeded conjugates.
The real-root kernel behind the constructed height witnesses (gcd,
square-free part, Sturm counts, isolating intervals, the rational-root test)
is checked against sympy's polynomial arithmetic and real roots.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from blowuplab import (
    ChartForm,
    DomainError,
    GradedForm,
    GradedVector,
    LieAlgebra,
    PolyRing,
    Polynomial,
    RATIONALS,
    StructureError,
    abelian,
    blowup_pullback,
    ce_differential,
    change_basis,
    check_line_orders,
    covector_form,
    diagonal_affine,
    hamiltonian_field,
    heis3,
    height,
    jacobi_check,
    killing_form,
    linear_poisson,
    scaled_so3_bundle,
    sl2,
    so3,
    spinor,
    vanishing_order,
)
from blowuplab import realroots
from blowuplab.charts import BlowupChart, integer_terms, nonzero_at, preferred_chart
from blowuplab.exterior import _indices_mask, index_bit, mask_indices, wedge_sign
from blowuplab.liealg import _checked_height, _wedge_chain, height_report
from blowuplab.linalg import in_row_space, integer_multiple, integer_rows, primitive, rank
from blowuplab.linalg import rank_and_membership, rref_basis
from blowuplab.model_io import MAX_DIM, SCALED_SO3_BLOWN
from blowuplab.poisson_spinor import _by_order, _line_table, _order_on_line
from blowuplab.poisson_spinor import shared_pullback
from blowuplab.sampling import covector_stream, dual_basis, pairwise_combinations
from conftest import as_lie, gen, seeded_conjugate, seeded_matrix
from reference import bucketed_line_order, det, diff, distribution_at, distribution_rows
from reference import exp_interior, integer_differential, line_order, multi_interior
from reference import polynomial_lift, rational_chains, reference_jacobi_check, restrict_zero
from reference import _merge_sign, _sort_indices, shift_down, substitute, volume_form
from reference import evaluate, reference_leading_form, reference_line_table
from reference import reference_order_on_line, reference_rref_basis, zeroed_leading_part
from reference import divided, fraction_jacobi_check, fraction_killing_form
from reference import fraction_linear_poisson, fraction_spinor, integral_form

SETTINGS = settings(derandomize=True, database=None, max_examples=60, deadline=None)
POLY = PolyRing(("y1", "y2"))


def so4() -> LieAlgebra:
    """so(3) + so(3), which is so(4) over the reals."""
    return LieAlgebra(
        6,
        {
            (1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1},
            (4, 5): {6: 1}, (5, 6): {4: 1}, (4, 6): {5: -1},
        },
        name="so4",
    )


CATALOG = [so3(), sl2(), heis3(), abelian(3), diagonal_affine(2), so4()]

rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
nonzero_rationals = st.builds(
    Fraction, st.integers(1, 12) | st.integers(-12, -1), st.integers(1, 6)
)


@st.composite
def conjugates_with_matrix(draw, bases):
    """A catalog algebra, in its own basis or in a rational change of basis,
    with the change-of-basis matrix (None for the own basis)."""
    L = draw(st.sampled_from(bases))
    if not draw(st.booleans()):
        return L, None
    n = L.dim
    matrix = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    assume(det(matrix) != 0)
    return change_basis(L, matrix), matrix


def conjugates(bases):
    return conjugates_with_matrix(bases).map(lambda pair: pair[0])


@st.composite
def coefficients(draw, ring):
    if ring == RATIONALS:
        return draw(rationals)
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)), rationals, max_size=3
        )
    )
    return Polynomial(ring.vars, terms)


@st.composite
def forms(draw, dim, ring, cls=GradedForm):
    """Any mix of degrees 0..dim; index tuples may come unsorted."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        degree = draw(st.integers(0, dim))
        indices = draw(st.permutations(range(1, dim + 1)))[:degree]
        terms[tuple(indices)] = draw(coefficients(ring))
    return cls(dim, ring, terms)


def reference_ce_differential(L: LieAlgebra, form: GradedForm) -> GradedForm:
    """The derivation as it was first written: d theta_k from the structure
    constants on every call, one wedge of three forms per term, summed form
    by form through the public constructor."""
    ring = form.ring
    n = L.dim

    def d_theta(k):
        return GradedForm(
            n,
            ring,
            {
                (i, j): -L.bracket_basis(i, j)[k - 1]
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
            },
        )

    result = GradedForm(n, ring)
    for indices, coeff in form.ordered_terms():
        for t, k in enumerate(indices):
            pre = GradedForm(n, ring, {indices[:t]: 1})
            post = GradedForm(n, ring, {indices[t + 1 :]: 1})
            piece = pre.wedge(d_theta(k)).wedge(post).scale(coeff)
            piece = GradedForm(n, ring, dict(piece.ordered_terms()))
            if t % 2:
                piece = GradedForm(n, ring, {i: -c for i, c in piece.ordered_terms()})
            merged = dict(result.ordered_terms())
            for i, c in piece.ordered_terms():
                merged[i] = merged.get(i, ring.zero()) + c
            result = GradedForm(n, ring, merged)
    return result


@SETTINGS
@given(data=st.data(), ring=st.sampled_from([RATIONALS, POLY]))
def test_ce_differential_matches_reference(data, ring):
    L = data.draw(conjugates(CATALOG))
    form = data.draw(forms(L.dim, ring))
    assert ce_differential(L, form) == reference_ce_differential(L, form)


def _restricted_pairing(L: LieAlgebra, xi) -> list[list[Fraction]]:
    """The rational pairing (d xi)(u, v) on the basis b_i - (xi_i/xi_p) b_p of ker xi."""
    n = L.dim
    pairing = [
        [-sum(x * c for x, c in zip(xi, L.bracket_basis(i, j))) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    p = next(i for i, v in enumerate(xi) if v)
    ratio = [v / xi[p] for v in xi]
    others = [i for i in range(n) if i != p]
    return [
        [
            pairing[i][j] - ratio[j] * pairing[i][p] - ratio[i] * pairing[p][j]
            for j in others
        ]
        for i in others
    ]


# covectors of lower height than the generic one, in the original basis:
# points of the sl2 cone, annihilators of the heis3 centre, and so4
# covectors that vanish on one so3 summand
HEIGHT_DROPS = {
    "sl2": [(1, 0, 1), (0, 1, -1), (3, 4, 5), (4, -3, 5)],
    "so3": [(1, 0, 0)],
    "heis3": [(1, 0, 0), (2, -3, 0)],
    "so4": [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 2, -2)],
}


@settings(SETTINGS, max_examples=150)
@given(data=st.data())
def test_height_is_half_the_sympy_rank_of_the_restricted_pairing(data):
    L, matrix = data.draw(conjugates_with_matrix([sl2(), so3(), heis3(), so4()]))
    # a covector of the original basis, carried through the change of basis
    # as xi M, keeps its height
    if data.draw(st.booleans()):
        xi = data.draw(st.sampled_from(HEIGHT_DROPS[L.name.split("~")[0]]))
    else:
        xi = data.draw(st.lists(st.integers(-3, 3), min_size=L.dim, max_size=L.dim))
    assume(any(xi))
    xi = [Fraction(v) for v in xi]
    if matrix is not None:
        n = L.dim
        xi = [sum(xi[i] * matrix[i][j] for i in range(n)) for j in range(n)]
    expected = sympy.Matrix(_restricted_pairing(L, xi)).rank()
    event(f"{L.name} rank={expected}")
    assert 2 * height(L, xi) == expected


def _canonical(result):
    """The public constructor's reading of a result's terms, which it must
    leave unchanged: same terms, same key order, ring-typed coefficients.
    The constructor reads index tuples, so each mask key is turned into its
    tuple in the order the terms were produced.  Terms are canonical in
    content only, so a rebuild from the terms in reverse order (polynomial
    coefficients reversed too) renders the same."""
    rebuilt = type(result)(
        result.dim, result.ring, {mask_indices(i): c for i, c in result.terms.items()}
    )
    assert rebuilt == result
    assert list(rebuilt.terms) == list(result.terms)
    kind = Fraction if result.ring == RATIONALS else Polynomial
    assert all(type(c) is kind for c in result.terms.values())
    backwards = type(result)(
        result.dim,
        result.ring,
        {
            mask_indices(i): Polynomial(c.vars, dict(reversed(c.terms.items())))
            if kind is Polynomial
            else c
            for i, c in reversed(result.terms.items())
        },
    )
    names = tuple(f"b{i}" for i in range(1, result.dim + 1))
    assert backwards == result and backwards.render(names) == result.render(names)


@SETTINGS
@given(data=st.data(), ring=st.sampled_from([RATIONALS, POLY]))
def test_trusted_constructor_results_are_canonical(data, ring):
    L = data.draw(conjugates(CATALOG))
    n = L.dim
    a = data.draw(forms(n, ring))
    b = data.draw(forms(n, ring))
    w = data.draw(forms(n, ring, cls=GradedVector))
    c = data.draw(coefficients(ring))
    xi = data.draw(st.lists(rationals | st.integers(-3, 3), min_size=n, max_size=n))
    for result in (
        covector_form(L, xi, ring),
        a.wedge(b),
        a + b,
        a + (-a),
        -a,
        a.scale(c),
        a.scale(0),
        w.wedge(w),
        multi_interior(w, a),
        ce_differential(L, a),
    ):
        _canonical(result)


@SETTINGS
@given(data=st.data())
def test_integer_and_rational_rank_agree_with_sympy(data):
    """Low-rank matrices L R and vectors c R (+ an optional unit vector), so
    both outcomes of row-space membership come up."""
    m, n, k = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5)), data.draw(st.integers(0, 3))

    def draw_matrix(rows, cols):
        return [[data.draw(rationals) for _ in range(cols)] for _ in range(rows)]

    left, right, combo = draw_matrix(m, k), draw_matrix(k, n), draw_matrix(1, k)[0]
    matrix = [[sum(a * right[t][j] for t, a in enumerate(row)) for j in range(n)] for row in left]
    vector = [sum(a * right[t][j] for t, a in enumerate(combo)) for j in range(n)]
    if data.draw(st.booleans()):
        vector[data.draw(st.integers(0, n - 1))] += 1

    def sympy_rank(rows):
        return sympy.Matrix(len(rows), n, [x for row in rows for x in row]).rank()

    expected = sympy_rank(matrix)
    assert rank(integer_rows(matrix)) == expected
    scale = data.draw(st.integers(1, 30)) * lcm(*(x.denominator for row in matrix for x in row))
    assert rank([[int(x * scale) for x in row] for row in matrix]) == expected
    member = sympy_rank(matrix + [vector]) == expected
    event(f"member={member}")
    cleared = integer_multiple(vector)[1]
    assert rank_and_membership(integer_rows(matrix), cleared) == (expected, member)
    assert in_row_space(matrix, vector) == member


@settings(SETTINGS, max_examples=200)
@given(data=st.data())
def test_reduced_echelon_basis_matches_the_gauss_jordan_loop(data):
    """The basis read off the fraction-free elimination against the rational
    Gauss-Jordan loop, entry for entry and as Fractions, on wide, tall and
    square matrices of rationals or ints with zero, repeated and dependent
    rows, and on [M | I] blocks as `inverse` builds them."""
    shape = data.draw(st.sampled_from(["wide", "tall", "square", "[M | I]"]))
    event(shape)
    n_rows = data.draw(st.integers(0 if shape == "tall" else 1, 6))
    n_cols = {
        "wide": data.draw(st.integers(n_rows, 8)),
        "tall": data.draw(st.integers(1, max(1, n_rows))),
    }.get(shape, n_rows)
    rows = [[data.draw(rationals) for _ in range(n_cols)] for _ in range(n_rows)]
    for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
        kind = data.draw(st.sampled_from(["zero", "repeated", "dependent"]))
        event(f"{kind} row")
        a, b = (data.draw(st.sampled_from(rows)) for _ in range(2))
        c = data.draw(rationals)
        row = {"zero": [Fraction(0)] * n_cols, "repeated": a}.get(
            kind, [x + c * y for x, y in zip(a, b)]
        )
        rows.insert(data.draw(st.integers(0, len(rows))), list(row))
    if shape == "[M | I]":
        rows = rows[:n_rows]
        rows = [row + [Fraction(int(i == j)) for j in range(n_rows)] for i, row in enumerate(rows)]
    if data.draw(st.booleans()):
        event("integer rows")
        rows = [integer_multiple(row)[1] for row in rows]
    got = rref_basis(rows)
    assert got == reference_rref_basis(rows)
    assert all(type(x) is Fraction for row in got for x in row)


def reference_merge_sign(left, right):
    """The shuffle sign as first written: two sets, an inversion count over
    every pair, and a sort."""
    if not left:
        return right, 1
    if not right:
        return left, 1
    if set(left) & set(right):
        return (), 0
    inversions = sum(1 for a in left for b in right if b < a)
    return tuple(sorted(left + right)), (-1) ** inversions


def _mask(indices) -> int:
    """The index mask of a set of indices, summed bit by bit."""
    return sum(1 << (i - 1) for i in set(indices))


@st.composite
def index_pairs(draw):
    """Two strictly increasing tuples, disjoint unless a shared index is
    put in on purpose."""
    pool = sorted(draw(st.sets(st.integers(1, MAX_DIM), max_size=8)))
    sides = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    left = [i for i, side in zip(pool, sides) if side]
    right = [i for i, side in zip(pool, sides) if not side]
    if left and draw(st.booleans()):
        right.append(draw(st.sampled_from(left)))
    return tuple(left), tuple(sorted(right))


@SETTINGS
@given(pair=index_pairs())
@example(pair=((1, MAX_DIM), (2, MAX_DIM - 1)))
@example(pair=((MAX_DIM,), (1,)))
@example(pair=((1, MAX_DIM), (MAX_DIM,)))
def test_merge_sign_matches_reference(pair):
    """The wedge sign of two disjoint masks, and the mask and tuple of their
    union, against the set-based inversion count and the tuple merge."""
    left, right = pair
    want = reference_merge_sign(left, right)
    got = _merge_sign(left, right)
    event(f"sign={got[1]}")
    assert got == want
    assert type(got[0]) is tuple
    a, b = _mask(left), _mask(right)
    assert (mask_indices(a), mask_indices(b)) == (left, right)
    if a & b:
        assert want[1] == 0
        return
    assert (mask_indices(a | b), wedge_sign(a, b)) == want


@settings(SETTINGS, max_examples=200)
@given(data=st.data(), dim=st.integers(0, MAX_DIM))
def test_sort_indices_matches_inversion_count(data, dim):
    """The mask of an index sequence, with the parity of a brute-force
    inversion count, sign 0 on a repeated index, and a StructureError on an
    index outside 1..dim (checked before repeats), against the tuple sort
    too."""
    indices = data.draw(st.permutations(range(1, dim + 1)))[: data.draw(st.integers(0, dim))]
    extra = data.draw(st.sampled_from(("none", "repeat", "out of range")))
    if extra == "repeat" and indices:
        indices.insert(data.draw(st.integers(0, len(indices))), data.draw(st.sampled_from(indices)))
    elif extra == "out of range":
        indices.insert(
            data.draw(st.integers(0, len(indices))), data.draw(st.sampled_from((-1, 0, dim + 1)))
        )
    if any(not 1 <= i <= dim for i in indices):
        event("out of range")
        with pytest.raises(StructureError):
            _indices_mask(dim, indices)
        with pytest.raises(StructureError):
            _sort_indices(dim, indices)
        return
    got = _sort_indices(dim, indices)
    mask, sign = _indices_mask(dim, indices)
    if len(set(indices)) < len(indices):
        event("repeat")
        assert got == ((), 0)
        assert (mask, sign) == (0, 0)
        return
    inversions = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    event(f"sign={(-1) ** inversions}")
    assert got == (tuple(sorted(indices)), (-1) ** inversions)
    assert type(got[0]) is tuple
    assert (mask, sign) == (_mask(indices), (-1) ** inversions)
    assert mask_indices(mask) == got[0]


def test_mask_helpers_at_the_ends_of_the_index_range():
    """Indices 1 and MAX_DIM: their bits, the sign of passing one over the
    other, a repeat of the top index, and range errors just outside."""
    top = MAX_DIM
    assert (index_bit(1), index_bit(top)) == (1, 1 << (top - 1))
    assert mask_indices(index_bit(1) | index_bit(top)) == (1, top)
    assert wedge_sign(index_bit(top), index_bit(1)) == -1
    assert wedge_sign(index_bit(1), index_bit(top)) == 1
    assert _indices_mask(top, (top, 1)) == (index_bit(1) | index_bit(top), -1)
    assert _indices_mask(top, (1, top, top)) == (0, 0)
    assert _indices_mask(top, tuple(range(top, 0, -1))) == ((1 << top) - 1, 1)
    for bad in ((0,), (top + 1,), (top, top, top + 1)):
        with pytest.raises(StructureError):
            _indices_mask(top, bad)


@st.composite
def polynomials(draw, variables, max_terms=4, max_exp=2):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * len(variables)), rationals, max_size=max_terms
        )
    )
    return Polynomial(variables, terms)


@st.composite
def polynomial_forms(draw, ring):
    """Mixed-degree forms with polynomial coefficients over `ring`."""
    dim = len(ring.vars)
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        degree = draw(st.integers(0, dim))
        indices = draw(st.permutations(range(1, dim + 1)))[:degree]
        terms[tuple(indices)] = draw(polynomials(ring.vars))
    return GradedForm(dim, ring, terms)


@st.composite
def skew_bivectors(draw):
    """A bivector of dimension 0-7 over a ring of fibre and base variables,
    with rational polynomial entries, most pairs left zero."""
    m = draw(st.integers(0, 7))
    base = draw(st.integers(0, min(m, 2)))
    ring = PolyRing(tuple(f"x{i}" for i in range(1, m - base + 1)) + ("y1", "y2")[:base])
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    entries = pairs and draw(
        st.dictionaries(st.sampled_from(pairs), polynomials(ring.vars, max_terms=3), max_size=10)
    )
    return GradedVector(m, ring, entries)


@settings(SETTINGS, max_examples=100)
@given(pi=skew_bivectors())
def test_pfaffian_spinor_matches_exp_interior(pi):
    """The spinor of the integer multiple of pi, over its one scale."""
    event(f"dimension {pi.dim}")
    names = tuple("d" + v for v in pi.ring.vars)
    scale, integral = integral_form(pi)
    phi, top = spinor(integral, scale), scale ** (pi.dim // 2)
    assert all(type(c) is int for poly in phi.terms.values() for c in poly.terms.values())
    want = exp_interior(pi, volume_form(pi.ring))
    assert phi.render(names, top) == want.render(names)
    _same_form(divided(phi, top), want, names)


def test_packed_pfaffian_exponents_do_not_carry():
    """`spinor` adds exponent tuples packed into ints of just enough bits for
    m // 2 times an entry's largest exponent: here x1^64 * x1^64 reaches that
    bound, next to small exponents in the other variables."""
    ring = PolyRing(("x1", "x2", "x3", "x4", "x5"))
    entries = {
        (1, 2): {(0, 0, 63, 0, 0): 1, (0, 0, 0, 1, 0): 1},
        (3, 4): {(0, 0, 63, 0, 2): 1, (1, 0, 0, 0, 0): -2},
        (1, 3): {(0, 31, 0, 0, 1): 1},
        (2, 4): {(0, 32, 0, 0, 0): 3, (0, 0, 0, 0, 63): 1},
        (1, 4): {(64, 0, 0, 0, 0): 1},
        (2, 3): {(64, 0, 0, 0, 0): -1, (0, 0, 0, 5, 0): 1},
        (4, 5): {(0, 1, 0, 0, 0): Fraction(1, 2)},
    }
    pi = GradedVector(5, ring, {pair: Polynomial(ring.vars, t) for pair, t in entries.items()})
    names = tuple("d" + v for v in ring.vars)
    _same_form(divided(spinor(pi), 1), exp_interior(pi, volume_form(ring)), names)


@st.composite
def blowup_setups(draw):
    """An ambient ring of fibre and base variables, a blown set that may
    include base variables, and a polynomial form over the ring."""
    fibre = draw(st.integers(1, 3))
    base = draw(st.integers(0, 2))
    ring = PolyRing(tuple(f"x{i}" for i in range(1, fibre + 1)) + ("y1", "y2")[:base])
    m = fibre + base
    blown = tuple(sorted(draw(st.sets(st.integers(1, m), min_size=1))))
    event(f"blown set includes a base variable: {blown[-1] > fibre}")
    return ring, blown, draw(polynomial_forms(ring))


def reference_images(bc: BlowupChart):
    """The blowdown as images: x_c -> u, x_v -> u x~_v (v blown), base fixed,
    and the differentials of those images."""
    m = len(bc.ring.vars)
    u = bc.chart_ring.variable(bc.chart)
    images = [
        u if pos == bc.chart
        else u * bc.chart_ring.variable(pos) if pos in bc.blown
        else bc.chart_ring.variable(pos)
        for pos in range(1, m + 1)
    ]
    differentials = [
        GradedForm(m, bc.chart_ring, {(k,): diff(img, k) for k in range(1, m + 1)})
        for img in images
    ]
    return images, differentials


def reference_pull_form(bc: BlowupChart, form: GradedForm) -> GradedForm:
    """The pullback as first written: substitute into each coefficient and
    wedge the pulled-back differentials of the form's indices."""
    images, differentials = reference_images(bc)
    m = len(bc.ring.vars)
    result = GradedForm(m, bc.chart_ring)
    for indices, coeff in form.ordered_terms():
        piece = GradedForm(m, bc.chart_ring, {(): substitute(coeff, images)})
        for j in indices:
            piece = piece.wedge(differentials[j - 1])
        result = result + piece
    return result


def _polynomial_canonical(poly: Polynomial):
    """No zero coefficient, Fraction coefficients, the validating constructor
    reads the terms back unchanged, and a rebuild from the terms in reverse
    order renders the same: terms are canonical in content only."""
    keys = list(poly.terms)
    assert all(len(e) == len(poly.vars) and min(e, default=0) >= 0 for e in keys)
    assert all(type(c) is Fraction and c for c in poly.terms.values())
    rebuilt = Polynomial(poly.vars, poly.terms)
    assert rebuilt == poly and list(rebuilt.terms) == keys
    backwards = Polynomial(poly.vars, dict(reversed(poly.terms.items())))
    assert backwards == poly and str(backwards) == str(poly)


def _same_form(got: GradedForm, want: GradedForm, names):
    assert got == want
    for poly in got.terms.values():
        _polynomial_canonical(poly)
    assert got.render(names) == want.render(names)
    _canonical(got)


@settings(SETTINGS, max_examples=120)
@given(setup=blowup_setups())
def test_pullback_by_exponent_matches_substitute_and_wedge(setup):
    ring, blown, form = setup
    for chart in blown:
        bc = BlowupChart(ring, chart, blown)
        names = tuple("d" + v for v in bc.chart_ring.vars)
        _same_form(bc.pull_form(form), reference_pull_form(bc, form), names)
        images, _ = reference_images(bc)
        for poly in form.terms.values():
            got = bc.pull_polynomial(poly)
            want = substitute(poly, images)
            assert got == want
            assert str(got) == str(want)
            _polynomial_canonical(got)


def reference_restrict_to_line(cf: ChartForm, xi) -> GradedForm:
    """The line restriction as first written: substitute the constant
    ratios xi_j / xi_c and t into every coefficient."""
    m = len(cf.ring.vars)
    xi = [Fraction(v) for v in xi]
    c = cf.chart
    t_ring = PolyRing(("t",))
    images = [
        t_ring.variable(1) if pos == c else t_ring.const(xi[pos - 1] / xi[c - 1])
        for pos in range(1, m + 1)
    ]
    return GradedForm(
        m, t_ring, {indices: substitute(poly, images) for indices, poly in cf.form.ordered_terms()}
    )


@SETTINGS
@given(data=st.data(), m=st.integers(1, 4))
def test_line_restriction_matches_substitution(data, m):
    ring = PolyRing(tuple(f"x~{i}" for i in range(1, m + 1)))
    form = data.draw(polynomial_forms(ring))
    chart = data.draw(st.integers(1, m))
    xi = data.draw(st.lists(st.just(Fraction(0)) | rationals, min_size=m, max_size=m))
    xi[chart - 1] = data.draw(st.builds(Fraction, st.integers(1, 12), st.integers(1, 6)))
    if data.draw(st.booleans()):
        xi[chart - 1] = -xi[chart - 1]
    cf = ChartForm(form, chart)
    line = reference_restrict_to_line(cf, xi)
    event(f"restriction vanishes: {line.is_zero()}")
    if line.is_zero():
        with pytest.raises(DomainError):
            line_order(cf, xi)
    else:
        assert line_order(cf, xi) == min(poly.valuation(1) for poly in line.terms.values())


def _assert_same_chart_paths(form: GradedForm, integral: GradedForm, scale: int, blown, lines=()):
    """The integer chart path (`blowup_pullback` of the integer multiple
    `integral` of the rational form, over one scale) against the rational
    one (`BlowupChart.pull_form` on the rational form, held at scale 1): the
    same exact form in the same key order, the same rendered bytes, the same
    certificate and the same order on each line whose direction lies in the
    chart."""
    for chart in blown:
        got = blowup_pullback(integral, chart, blown, scale)
        want = ChartForm(BlowupChart(form.ring, chart, blown).pull_form(form), chart)
        ints = [c for p in got.integer_form.terms.values() for c in p.terms.values()]
        assert all(type(c) is int for c in ints)
        assert got.form == want.form and list(got.form.terms) == list(want.form.terms)
        for indices, poly in got.form.terms.items():
            assert list(poly.terms) == list(want.form.terms[indices].terms)
        assert got.render() == want.render()
        if want.form.is_zero():
            continue
        a, b = vanishing_order(got, samples=30), vanishing_order(want, samples=30)
        event(f"status {a.status}")
        assert (a.chart, a.order, a.status) == (b.chart, b.order, b.status)
        assert a.certificate == b.certificate and a.witness_point == b.witness_point
        assert a.leading.form == b.leading.form
        assert a.leading.render() == b.leading.render()
        for xi in lines:
            if not xi[chart - 1]:
                continue
            try:
                expected = line_order(want, xi)
            except DomainError:
                with pytest.raises(DomainError):
                    line_order(got, xi)
            else:
                assert line_order(got, xi) == expected


@settings(SETTINGS, max_examples=120)
@given(data=st.data(), setup=blowup_setups())
def test_integer_chart_path_matches_the_rational_pullback(data, setup):
    ring, blown, form = setup
    # scale the form by 1/d so that its coefficients share a denominator above 1
    form = form.scale(Fraction(1, data.draw(st.integers(1, 7))))
    m = len(ring.vars)
    scale = lcm(*(c.denominator for p in form.terms.values() for c in p.terms.values()))
    event(f"scale above 1: {scale > 1}")
    event(f"partial blowup: {len(blown) < m}")
    lines = ()
    if blown == tuple(range(1, m + 1)):
        lines = data.draw(st.lists(st.lists(rationals, min_size=m, max_size=m), max_size=4))
    scale, integral = integral_form(form)
    _assert_same_chart_paths(form, integral, scale, blown, lines)


@settings(SETTINGS, max_examples=30)
@given(
    L=st.sampled_from([so3(), sl2(), heis3(), diagonal_affine(2), so4()]), seed=st.integers(1, 5)
)
def test_integer_chart_path_matches_the_rational_pullback_on_seeded_conjugates(L, seed):
    L = seeded_conjugate(L, seed)
    phi = fraction_spinor(fraction_linear_poisson(L))
    denominators = {c.denominator for p in phi.terms.values() for c in p.terms.values()}
    event(f"spinor scale above 1: {denominators != {1}}")
    lines = list(itertools.islice(covector_stream(L.dim, seed), 12))
    pi, scale = linear_poisson(L)
    integral, scale = spinor(pi, scale), scale ** (L.dim // 2)
    _assert_same_chart_paths(phi, integral, scale, tuple(range(1, L.dim + 1)), lines)


@SETTINGS
@given(data=st.data(), m=st.integers(1, 3))
def test_trusted_polynomial_results_are_canonical(data, m):
    variables = tuple(f"y{i}" for i in range(1, m + 1))
    a = data.draw(polynomials(variables))
    b = data.draw(polynomials(variables))
    c = data.draw(rationals | st.integers(-3, 3))
    position = data.draw(st.integers(1, m))
    divisible = a * PolyRing(variables).variable(position) ** 2
    for result in (
        a + b,
        a + (-a),
        a - b,
        -a,
        a * b,
        a * (b - b),
        (a + b) * (a - b),
        a * c,
        a**2,
        shift_down(divisible, position, 2),
        restrict_zero(a, position),
    ):
        _polynomial_canonical(result)
    assert shift_down(divisible, position, 2) == a
    assert (a + b) * (a - b) == a**2 - b**2


@st.composite
def bracket_tables(draw):
    """A random sparse i < j table (rarely a Lie algebra) or a conjugate of
    a catalog algebra (always one)."""
    if draw(st.integers(0, 7)) == 0:
        return draw(conjugates(CATALOG))
    n = draw(st.integers(3, 6))
    keys = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    table = {}
    for key in draw(st.lists(st.sampled_from(keys), min_size=2, max_size=8)):
        targets = draw(st.lists(st.integers(1, n), min_size=1, max_size=2))
        table[key] = {k: draw(nonzero_rationals) for k in targets}
    return LieAlgebra(n, table)


@settings(SETTINGS, max_examples=150)
@given(L=bracket_tables())
def test_jacobi_check_matches_general_bracket_reference(L):
    got = jacobi_check(L)
    event("violated" if got else "Lie algebra")
    assert got == reference_jacobi_check(L)
    assert all(type(v) is Fraction for _, defect in got for v in defect)


# -- the real-root kernel against sympy -----------------------------------------

X = sympy.Symbol("x")


def to_sympy(p) -> sympy.Poly:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)]
    return sympy.Poly(coeffs or [0], X, domain=sympy.QQ)


def from_sympy(poly: sympy.Poly):
    return realroots.trim(
        Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())
    )


def monic_sympy(poly: sympy.Poly):
    return from_sympy(poly.monic()) if not poly.is_zero else ()


@st.composite
def products(draw, max_factors=4):
    """A nonzero polynomial built as a product of small random factors of
    degree 1 to 3, with repeats, so gcds, multiple roots, rational and
    irrational roots and root-free factors all occur."""
    p = sympy.Poly(draw(nonzero_rationals), X, domain=sympy.QQ)
    for _ in range(draw(st.integers(0, max_factors))):
        degree = draw(st.integers(1, 3))
        coeffs = [draw(nonzero_rationals)] + [draw(rationals) for _ in range(degree)]
        p *= sympy.Poly(coeffs, X, domain=sympy.QQ) ** draw(st.integers(1, 2))
    return p


def sympy_count(poly: sympy.Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct roots in (lo, hi]: sympy counts on the closed interval."""
    sqf = poly.sqf_part()
    low = sympy.Rational(lo.numerator, lo.denominator)
    closed = sqf.count_roots(low, sympy.Rational(hi.numerator, hi.denominator))
    return closed - (sqf.eval(low) == 0)


@SETTINGS
@given(a=products(), b=products(), common=products(max_factors=2))
def test_realroots_gcd_and_squarefree_match_sympy(a, b, common):
    p, q = from_sympy(a * common), from_sympy(b * common)
    assert realroots.gcd(p, q) == monic_sympy(sympy.gcd(a * common, b * common))
    assert realroots.squarefree(p) == monic_sympy((a * common).sqf_part())
    quot, rem = realroots.divide(p, q)
    expected_quot, expected_rem = (a * common).div(b * common)
    assert (quot, rem) == (from_sympy(expected_quot), from_sympy(expected_rem))


@SETTINGS
@given(data=st.data(), poly=products())
def test_sturm_root_counts_match_sympy(data, poly):
    # ends are drawn among the rational roots too, which the half-open count
    # must handle
    rational_roots = [Fraction(int(r.p), int(r.q)) for r in poly.real_roots() if r.is_rational]
    ends = st.sampled_from(rational_roots) | rationals if rational_roots else rationals
    lo, hi = sorted(data.draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    p = from_sympy(poly)
    event("an end is a root" if not poly.eval(lo) or not poly.eval(hi) else "no end is a root")
    assert realroots.count_roots(p, lo, hi) == sympy_count(poly, lo, hi)


@settings(SETTINGS, max_examples=40)
@given(poly=products(max_factors=5))
def test_isolating_intervals_hold_exactly_one_root_each(poly):
    p = from_sympy(poly)
    intervals = realroots.isolating_intervals(p)
    assert len(intervals) == len(set(poly.real_roots()))
    assert intervals == sorted(intervals)
    for (lo, hi), following in zip(intervals, intervals[1:] + [None]):
        assert lo < hi and (following is None or hi <= following[0])
        assert realroots.count_roots(p, lo, hi) == 1
        assert sympy_count(poly, lo, hi) == 1


big = st.integers(1, 10**12)


@SETTINGS
@given(
    roots=st.lists(st.builds(Fraction, st.integers(-(10**12), 10**12), big), max_size=3),
    extra=st.lists(nonzero_rationals, min_size=3, max_size=3),
    lead=nonzero_rationals,
)
def test_rational_root_finds_exactly_sympy_rational_roots(roots, extra, lead):
    """Non-monic products of (b x - a) with large a and b and of a quadratic
    whose real roots, when it has any, are usually irrational."""
    poly = sympy.Poly(sympy.Rational(lead.numerator, lead.denominator), X, domain=sympy.QQ)
    for r in roots:
        poly *= sympy.Poly([r.denominator, -r.numerator], X, domain=sympy.QQ)
    poly *= sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in extra], X)
    p = from_sympy(poly)
    found = {
        root
        for interval in realroots.isolating_intervals(p)
        if (root := realroots.rational_root(p, *interval)) is not None
    }
    expected = {Fraction(int(r.p), int(r.q)) for r in poly.real_roots() if r.is_rational}
    event("has a rational root" if expected else "no rational root")
    event("has an irrational root" if len(set(poly.real_roots())) > len(expected) else "all rational")
    assert found == expected


# -- integer per-covector kernels -------------------------------------------------

# sl3 first: the draws lean towards the first entry, and it is the hardest
KERNEL_BASES = {
    "sl3": lambda: as_lie(gen.sl(3)),
    "so3": so3,
    "sl2": sl2,
    "heis3": heis3,
    "diagonal_affine3": lambda: diagonal_affine(3),
}
big_rationals = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
nonzero_big_rationals = st.builds(
    Fraction, st.integers(1, 10**6) | st.integers(-10**6, -1), st.integers(1, 10**6)
)


@functools.lru_cache(maxsize=None)
def kernel_conjugate(name: str, seed: int):
    """(seeded conjugate of a kernel base, its change-of-basis matrix)."""
    base = KERNEL_BASES[name]()
    matrix = seeded_matrix(base.dim, seed)
    return change_basis(base, matrix), matrix


@st.composite
def kernel_cases(draw):
    """A seeded conjugate with a covector: random entries up to 10^6/10^6,
    or a standard-basis seed covector (where heights drop) carried into the
    conjugate basis as xi M and scaled by such a rational."""
    L, matrix = kernel_conjugate(draw(st.sampled_from(list(KERNEL_BASES))), draw(st.integers(1, 3)))
    n = L.dim
    if draw(st.booleans()):
        xi = draw(st.lists(big_rationals, min_size=n, max_size=n))
    else:
        seed = draw(st.sampled_from(dual_basis(n) + pairwise_combinations(n)))
        scale = draw(nonzero_big_rationals)
        xi = [scale * sum(seed[i] * matrix[i][j] for i in range(n)) for j in range(n)]
    assume(any(xi))
    return L, tuple(xi)


@settings(SETTINGS, max_examples=150)
@given(case=kernel_cases())
def test_integer_height_and_power_match_the_rational_chains(case):
    L, xi = case
    k, r = rational_chains(L, xi)
    event(f"{L.name} k={k} r={r}")
    height_, omega, _ = _checked_height(L, primitive(xi))
    assert (height_, _wedge_chain(GradedForm._trusted(L.dim, RATIONALS, {0: 1}), omega)) == (k, r)
    record = height_report(L, xi)
    assert (record.height, record.cartan_class) == (k, k + r + 1)


@settings(SETTINGS, max_examples=100)
@given(case=kernel_cases())
def test_integer_distribution_rank_matches_the_rational_rows(case):
    L, v = case
    _, rows = distribution_rows(L, v)
    expected = sympy.Matrix(rows).rank()
    event(f"{L.name} rank={expected}")
    assert distribution_at(L, v) == expected


# -- shared per-sample inputs against the paths they replaced ------------------------


@settings(SETTINGS, max_examples=100)
@given(case=kernel_cases())
def test_pairing_differential_matches_the_ce_differential(case):
    """The height kernel reads d xi off the pairing matrix; it is a positive
    integer multiple of the D d x that `ce_differential` gives, and both
    give the same height k and top power r."""
    L, xi = case
    x = primitive(xi)
    k, omega, _ = _checked_height(L, x)
    reference = integer_differential(L, x)
    assert omega.terms.keys() == reference.terms.keys()
    if reference.terms:
        first = next(iter(reference.terms))
        ratio = Fraction(omega.terms[first], reference.terms[first])
        assert ratio > 0
        assert all(omega.terms[i] == ratio * c for i, c in reference.terms.items())
    one = GradedForm._trusted(L.dim, RATIONALS, {0: 1})
    form = GradedForm._trusted(L.dim, RATIONALS, {index_bit(i + 1): v for i, v in enumerate(x) if v})
    r = _wedge_chain(one, omega)
    event(f"{L.name} k={k} r={r}")
    assert (k, r) == (_wedge_chain(form, reference), _wedge_chain(one, reference))


@settings(SETTINGS, max_examples=60)
@given(data=st.data(), case=kernel_cases())
def test_line_order_table_matches_the_bucketed_reference(data, case):
    """One compiled table per chart, read lowest group first, gives the
    order that bucketing and compiling the chart form per direction gives,
    at the direction's preferred chart and at one other chart."""
    L, xi = case
    x = primitive(xi)
    other = data.draw(st.sampled_from([c for c in range(1, L.dim + 1) if x[c - 1]]))
    for chart in {preferred_chart(x), other}:
        cf = shared_pullback(L, chart)
        try:
            expected = bucketed_line_order(cf, xi)
        except DomainError:
            event("restriction vanishes")
            with pytest.raises(DomainError):
                _order_on_line(_line_table(_by_order(cf)), x, chart)
        else:
            event(f"{L.name} order={expected}")
            assert _order_on_line(_line_table(_by_order(cf)), x, chart) == expected


@st.composite
def chart_forms(draw):
    """A nonzero chart form: the integer chart path (`blowup_pullback`) or
    the rational one (`pull_form` held at scale 1) of a drawn polynomial
    form through a full or partial blown set, or of the spinor of the
    scaled so(3) bundle, blown along its fibre."""
    if draw(st.booleans()):
        f = draw(st.sampled_from(["0", "1", "y1", "y1*y2 - 2", "(y1-y2)^2+1", "1/3*y1^2 - y2"]))
        event("bundle")
        pi, scale = scaled_so3_bundle(f)
        integral, scale = spinor(pi, scale), scale ** (pi.dim // 2)
        ring, blown = pi.ring, SCALED_SO3_BLOWN
    else:
        ring, blown, form = draw(blowup_setups())
        scale, integral = integral_form(form.scale(Fraction(1, draw(st.integers(1, 7)))))
    chart = draw(st.sampled_from(blown))
    if draw(st.booleans()):
        event("integer chart form")
        cf = blowup_pullback(integral, chart, blown, scale)
    else:
        event("rational chart form")
        bc = BlowupChart(ring, chart, blown)
        cf = ChartForm(bc.pull_form(divided(integral, scale)), chart)
    event(f"partial blowup: {len(blown) < len(ring.vars)}")
    assume(not cf.integer_form.is_zero())
    return cf


@settings(SETTINGS, max_examples=150)
@given(data=st.data(), cf=chart_forms())
def test_one_grouping_by_u_exponent_gives_the_old_leading_form_and_line_orders(data, cf):
    """The first part of `_by_order`, chart exponent zeroed, is the leading
    form as it was built alone, and `vanishing_order` reads it; the compiled
    leading part is nonzero at a divisor point exactly when some leading
    coefficient is; and the line-order table compiled from every part gives
    the line orders of the old per-coefficient table."""
    order, lead = reference_leading_form(cf)
    k, zeroed = zeroed_leading_part(cf)
    polys = {mask: Polynomial._trusted(cf.ring.vars, terms) for mask, terms in zeroed.items()}
    assert k == order
    assert GradedForm._trusted(cf.integer_form.dim, cf.ring, polys) == lead
    assert list(polys) == list(lead.terms)
    cert = vanishing_order(cf, samples=20)
    assert cert.order == order and cert.leading.form == lead.scale(Fraction(1, cf.scale))
    assert (cert.leading.integer_form, cert.leading.scale) == (lead, cf.scale)
    event(f"status {cert.status}")
    if cert.status == "falsified":
        assert not any(evaluate(poly, cert.witness_point) for poly in lead.terms.values())

    compiled, m = integer_terms(*zeroed.values()), len(cf.ring.vars)
    for _ in range(3):
        point = data.draw(st.lists(rationals, min_size=m, max_size=m))
        point[cf.chart - 1] = Fraction(0)
        q, nums = integer_multiple(point)
        nonzero = any(evaluate(poly, point) for poly in lead.terms.values())
        event(f"leading form nonzero at the point: {nonzero}")
        assert nonzero_at(compiled, nums, q) == nonzero

    table, old_table = _line_table(_by_order(cf)), reference_line_table(cf)
    for _ in range(3):
        x = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
        x[cf.chart - 1] = x[cf.chart - 1] or 1
        x = tuple(x)
        try:
            expected = reference_order_on_line(old_table, x, cf.chart)
        except DomainError:
            with pytest.raises(DomainError):
                _order_on_line(table, x, cf.chart)
        else:
            event(f"line order {expected}")
            assert _order_on_line(table, x, cf.chart) == expected


@pytest.mark.parametrize("name", list(KERNEL_BASES))
def test_checked_line_orders_match_the_bucketed_reference(name):
    """The same on the per-chart tables the commands read, at every sample
    `check_line_orders` checks."""
    for seed in (1, 2, 3):
        L = kernel_conjugate(name, seed)[0]
        for record in check_line_orders(L, 20, seed).records:
            cf = shared_pullback(L, record.chart)
            assert record.order == bucketed_line_order(cf, record.xi)


@settings(SETTINGS, max_examples=30)
@given(name=st.sampled_from(list(KERNEL_BASES)), seed=st.integers(1, 3))
def test_term_lift_matches_the_polynomial_lift_on_hamiltonian_fields(name, seed):
    """Lifting on term dicts gives the polynomials that `Polynomial`
    arithmetic gives, for every Hamiltonian field of dx_i in every chart."""
    L = kernel_conjugate(name, seed)[0]
    pi, _ = linear_poisson(L)
    for chart in range(1, L.dim + 1):
        bc = BlowupChart(pi.ring, chart)
        for i in range(1, L.dim + 1):
            field = hamiltonian_field(pi, i)
            got, want = bc.lift_vector_field(field), polynomial_lift(bc, field)
            assert got == want
            assert [str(p) for p in got] == [str(p) for p in want]


@st.composite
def vanishing_fields(draw):
    """A chart of the origin blowup of m <= 4 variables and a vector field
    with rational coefficients vanishing at the origin: linear, plus at
    times a few terms of degree two."""
    m = draw(st.integers(1, 4))
    ring = PolyRing(tuple(f"x{i}" for i in range(1, m + 1)))
    units = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    field = []
    for _ in range(m):
        terms = {unit: draw(rationals) for unit in units}
        for _ in range(draw(st.integers(0, 2))):
            a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            terms[tuple(map(sum, zip(units[a], units[b])))] = draw(rationals)
        field.append(Polynomial(ring.vars, terms))
    return BlowupChart(ring, draw(st.integers(1, m))), field


@settings(SETTINGS, max_examples=120)
@given(case=vanishing_fields())
def test_term_lift_matches_the_polynomial_lift_on_vanishing_fields(case):
    """The same on random fields of up to four variables, in every chart."""
    bc, field = case
    got, want = bc.lift_vector_field(field), polynomial_lift(bc, field)
    event(f"zero field: {not any(field)}")
    assert got == want
    assert [str(p) for p in got] == [str(p) for p in want]
    for poly in got:
        _polynomial_canonical(poly)


# -- one integer table against the Fraction paths it replaced -------------------------


@st.composite
def rational_tables(draw):
    """A bracket table of dimension 2-5 with a few rational constants p/q,
    q <= 6; Jacobi may fail."""
    n = draw(st.integers(2, 5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    vectors = st.dictionaries(st.integers(1, n), nonzero_rationals, min_size=1, max_size=2)
    return LieAlgebra(n, draw(st.dictionaries(st.sampled_from(pairs), vectors, max_size=4)))


# random rational tables, and the seeded conjugates of the kernel bases
integer_table_algebras = rational_tables() | st.builds(
    lambda name, seed: kernel_conjugate(name, seed)[0],
    st.sampled_from(list(KERNEL_BASES)),
    st.integers(1, 3),
)


@settings(SETTINGS, max_examples=80)
@given(L=integer_table_algebras)
def test_the_integer_spinor_over_its_scale_is_the_fraction_spinor(L):
    """`linear_poisson` is D pi in ints and D; `spinor` lifts every Pfaffian
    level to D^(dim // 2), and over that scale each coefficient is the one
    the Fraction spinor divided per term."""
    event(f"scale above 1: {L._scale > 1}")
    pi, scale = linear_poisson(L)
    reference = fraction_linear_poisson(L)
    assert all(type(c) is int for p in pi.terms.values() for c in p.terms.values())
    assert divided(pi, scale) == reference
    phi, top = spinor(pi, scale), scale ** (L.dim // 2)
    want = fraction_spinor(reference)
    assert phi.terms.keys() == want.terms.keys()
    for mask, poly in want.terms.items():
        got = phi.terms[mask].terms
        assert all(type(c) is int for c in got.values())
        assert {e: Fraction(c, top) for e, c in got.items()} == poly.terms
    names = tuple("d" + v for v in pi.ring.vars)
    assert phi.render(names, top) == want.render(names)


@settings(SETTINGS, max_examples=80)
@given(L=integer_table_algebras)
def test_the_killing_matrix_is_d_squared_times_the_fraction_killing_form(L):
    want = fraction_killing_form(L)
    square = L._scale**2
    got = killing_form(L, scaled=True)
    assert all(type(v) is int for row in got for v in row)
    assert got == [[square * v for v in row] for row in want]
    assert killing_form(L) == want


@settings(SETTINGS, max_examples=80)
@given(L=integer_table_algebras)
def test_the_jacobi_defects_of_the_integer_table_are_the_fraction_defects(L):
    want = fraction_jacobi_check(L)
    event(f"violations: {bool(want)}")
    assert jacobi_check(L) == want


@settings(SETTINGS, max_examples=40)
@given(L=integer_table_algebras)
def test_lifted_fields_of_the_integer_bivector_are_d_times_the_fraction_lifts(L):
    """Route 3 lifts the Hamiltonian fields of D pi: each lift is the lift
    for pi, in `Polynomial` arithmetic, times the positive scale D."""
    pi, scale = linear_poisson(L)
    reference = fraction_linear_poisson(L)
    for chart in range(1, L.dim + 1):
        bc = BlowupChart(pi.ring, chart)
        for i in range(1, L.dim + 1):
            got = bc.lift_vector_field(hamiltonian_field(pi, i))
            want = polynomial_lift(bc, hamiltonian_field(reference, i))
            assert got == tuple(poly * scale for poly in want)
