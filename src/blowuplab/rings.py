"""Exact coefficient rings: arbitrary-precision rationals and sparse polynomials.

A polynomial over variables ``(v_1, ..., v_m)`` is stored as a dict mapping
exponent tuples to nonzero ``Fraction`` coefficients:

    x1^2*x2 + 3/2   ->   {(0, 0): Fraction(3, 2), (2, 1): Fraction(1)}

Zero coefficients are never stored, so equal polynomials have equal term
dicts, which are canonical in content: keys are kept in any order, and only
rendering orders them.  Polynomials and the forms of `exterior` share two
rules on such term maps: `add_term` adds a term and drops a zero sum, and
`join_terms` prints a sum of terms, reading +-1 off the printed coefficient.
All arithmetic is exact; float literals are rejected everywhere.  ``int``
coefficients, as in the integer chart forms of `poisson_spinor`, stay ints
under negation, sums and products.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple, Sequence, Union

from .errors import DomainError, ParseError, StructureError

Rational = Union[int, Fraction]

# the decimal digit of every exact input grammar: `\d` would also match
# Arabic-Indic, fullwidth and other Unicode digits
DIGIT = "[0-9]"
_LITERAL = f"{DIGIT}+(?:/{DIGIT}+)?"  # an unsigned p or p/q
_RATIONAL_RE = re.compile(rf"[+-]?{_LITERAL}\Z")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q``; anything else (in particular floats) is rejected."""
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ParseError(f"not an exact rational: {token!r} (float literals are not accepted)")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {token!r}") from None
    except ValueError:  # longer than int() accepts
        raise ParseError(f"rational literal of {len(token)} characters is too long") from None


def format_rational(value: Rational, scale: int = 1) -> str:
    """value / scale in lowest terms, as p or p/q, for a positive int scale:
    one gcd reduces it, and no Fraction is built."""
    num, den = value.numerator, value.denominator * scale
    if scale != 1 and (common := gcd(num, den)) != 1:
        num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


def add_term(terms: dict, key, coeff) -> None:
    """Add coeff to terms[key] in place, dropping a zero sum: an existing key
    keeps its slot, and a new key is appended."""
    if key in terms:
        coeff = terms[key] + coeff
    if coeff:
        terms[key] = coeff
    else:
        terms.pop(key, None)


def join_terms(pairs: Sequence[tuple[str, str]]) -> str:
    """The sum of (coefficient text, body) terms, the body a monomial or a
    basis element, "" for a constant.  A coefficient printed "1" or "-1"
    writes the body alone or negated, a multi-term one is parenthesized, a
    term's leading "-" is written " - ", and no terms print as "0"."""
    out = []
    for text, body in pairs:
        if body:
            if text == "1":
                text = body
            elif text == "-1":
                text = "-" + body
            else:
                text = f"({text})*{body}" if " " in text else f"{text}*{body}"
        if out:
            out.append(" - " + text[1:] if text[0] == "-" else " + " + text)
        else:
            out.append(text)
    return "".join(out) or "0"


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Rational] | None = None):
        self.vars = tuple(variables)
        self.terms: dict[tuple, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.vars) or any(e < 0 for e in exps):
                raise StructureError(f"bad exponent tuple {exps} for variables {self.vars}")
            add_term(self.terms, exps, RATIONALS.coerce(coeff))

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> "Polynomial":
        """Internal constructor for terms that are already canonical: exponent
        tuples of the right length, nonzero coefficients, in any order.
        Callers own the invariants."""
        self = object.__new__(cls)
        self.vars = variables
        self.terms = terms
        return self

    # -- predicates and accessors ------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> Rational:
        return self.terms.get((0,) * len(self.vars), 0)

    def valuation(self, position: int) -> int:
        """Smallest exponent of variable ``position`` (1-based) over all monomials."""
        if not self.terms:
            raise DomainError("zero polynomial has no valuation")
        return min(e[position - 1] for e in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                raise StructureError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.vars, {(0,) * len(self.vars): other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            add_term(merged, exps, coeff)
        return Polynomial._trusted(self.vars, merged)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
        return Polynomial._trusted(self.vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise StructureError("polynomial powers must be nonnegative integers")
        result = Polynomial._trusted(self.vars, {(0,) * len(self.vars): Fraction(1)})
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    __hash__ = None

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        return self.render({})

    def render(self, monomials: dict, scale: int = 1) -> str:
        """The text of the polynomial over the positive int `scale`.  `monomials`
        maps exponent tuples to their text and is filled as it goes, so
        polynomials rendered together build each monomial's text once."""
        # graded order: total degree first, then lexicographic with earlier
        # variables dominating (so "1 + x2^2 + x3^2" renders in that order):
        # a stable sort on degree alone of the keys in descending order
        names = self.vars
        pairs = []
        for exps in sorted(sorted(self.terms, reverse=True), key=sum):
            monomial = monomials.get(exps)
            if monomial is None:
                monomial = monomials[exps] = "*".join(
                    [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(exps) if e]
                )
            pairs.append((format_rational(self.terms[exps], scale), monomial))
        return join_terms(pairs)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


class Rationals(NamedTuple):
    """The coefficient ring of arbitrary-precision rational numbers.  Its one
    field makes it a nonempty tuple: an empty one would test false."""

    name: str = "Q"

    def zero(self) -> Fraction:
        return Fraction(0)

    def coerce(self, value) -> Fraction:
        if type(value) is Fraction:
            return value
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise StructureError(f"cannot coerce {value!r} into the rational ring")


# a NamedTuple body cannot define __new__, so PolyRing validates in a subclass
class _Variables(NamedTuple):
    vars: tuple[str, ...]


class PolyRing(_Variables):
    """Polynomials over an ordered tuple of named variables, rational coefficients."""

    __slots__ = ()

    def __new__(cls, vars: tuple[str, ...]):
        if len(set(vars)) != len(vars):
            raise StructureError(f"duplicate variable names: {vars}")
        return super().__new__(cls, vars)

    def zero(self) -> Polynomial:
        return Polynomial(self.vars)

    def const(self, value: Rational) -> Polynomial:
        return Polynomial(self.vars, {(0,) * len(self.vars): value})

    def variable(self, position: int) -> Polynomial:
        """The monomial v_position (1-based position)."""
        if not 1 <= position <= len(self.vars):
            raise StructureError(f"variable position {position} out of range")
        exps = [0] * len(self.vars)
        exps[position - 1] = 1
        return Polynomial._trusted(self.vars, {tuple(exps): Fraction(1)})

    def named(self, name: str) -> Polynomial:
        if name not in self.vars:
            raise StructureError(f"unknown variable {name!r}; ring has {self.vars}")
        return self.variable(self.vars.index(name) + 1)

    def coerce(self, value) -> Polynomial:
        if isinstance(value, Polynomial):
            if value.vars != self.vars:
                raise StructureError(
                    f"polynomial over {value.vars} does not belong to ring over {self.vars}"
                )
            return value
        if isinstance(value, (int, Fraction)):
            return self.const(value)
        raise StructureError(f"cannot coerce {value!r} into {self}")

    def parse(self, text: str) -> Polynomial:
        return parse_polynomial(text, self)


CoeffRing = Union[Rationals, PolyRing]

RATIONALS = Rationals()


# -- polynomial expression parser ---------------------------------------------

# Largest exponent, and largest total degree of a power or a product, that
# the parser builds.  A power costs work in its exponent's value, not in the
# few characters that write it, so an uncapped "y1^3000000" runs without bound.
MAX_POWER_DEGREE = 64
# Deepest nesting of parentheses and unary signs.  The parser recurses once per
# level, so this bound keeps 1,000 leading "-" a parse error, not a RecursionError.
MAX_NESTING = 100


class _Degree(int):
    """A subexpression's total degree as written, for a parser pass that
    builds no polynomial: a sum takes the larger degree, a product adds."""

    __add__ = __sub__ = lambda a, b: _Degree(max(a, b))  # noqa: E731
    __mul__ = lambda a, b: _Degree(int(a) + int(b))  # noqa: E731
    __pow__ = lambda a, exponent: _Degree(int(a) * exponent)  # noqa: E731
    __neg__ = lambda a: a  # noqa: E731


class _DegreeRing(PolyRing):
    const = lambda self, value: _Degree(0)  # noqa: E731
    named = lambda self, name: _Degree(1)  # noqa: E731


def _total_degree(value) -> int:
    if isinstance(value, int):
        return int(value)
    return max((sum(exps) for exps in value.terms), default=0)


_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<rat>{_LITERAL})|(?P<name>[A-Za-z][A-Za-z0-9~_]*)|(?P<op>[-+*^()]))"
)


def _tokenize(text: str):
    """The tokens of the text, each read with the whitespace before it."""
    tokens, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(f"unexpected character {text[pos:]!r} in polynomial")
        tokens.append(match)
        pos = match.end()
    return tokens


class _PolyParser:
    """Recursive-descent parser for the grammar

        expr := term (("+" | "-") term)*      term := unary ("*" unary)*
        unary := ("+" | "-") unary | factor   factor := base ("^" p)?
        base := p | p/q | name | "(" expr ")"
    """

    def __init__(self, text: str, ring: PolyRing):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.ring = ring

    def _accept(self, ops: str) -> str | None:
        """Consume the next token if it is one of the operators in `ops`, and
        return that operator."""
        op = self.tokens[self.pos].group("op") if self.pos < len(self.tokens) else None
        if op is None or op not in ops:
            return None
        self.pos += 1
        return op

    def _next(self):
        if self.pos == len(self.tokens):
            raise ParseError("unexpected end of polynomial expression")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def parse(self) -> Polynomial:
        value = self._expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input in polynomial: {self.tokens[self.pos].group()!r}")
        return value

    def _expr(self) -> Polynomial:
        value = self._term()
        while op := self._accept("+-"):
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> Polynomial:
        value = self._unary()
        while self._accept("*"):
            value = value * self._unary()
            if (degree := _total_degree(value)) > MAX_POWER_DEGREE:
                raise ParseError(f"a product of total degree {degree} exceeds {MAX_POWER_DEGREE}")
        return value

    def _unary(self) -> Polynomial:
        # a sign may open any factor and applies to the power after it, so
        # -a^b is -(a^b) wherever it stands
        op = self._accept("+-")
        if op is None:
            return self._factor()
        value = self._nested(self._unary)
        return -value if op == "-" else value

    def _nested(self, production) -> Polynomial:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses and signs nest deeper than {MAX_NESTING}")
        value = production()
        self.depth -= 1
        return value

    def _factor(self) -> Polynomial:
        base = self._base()
        if not self._accept("^"):
            return base
        rat = self._next().group("rat")
        if rat is None or "/" in rat:
            raise ParseError("exponents must be nonnegative integers")
        exponent = parse_rational(rat).numerator
        degree = _total_degree(base)
        if exponent > MAX_POWER_DEGREE or degree * exponent > MAX_POWER_DEGREE:
            raise ParseError(
                f"power {exponent} of a degree-{degree} polynomial exceeds the "
                f"limit of {MAX_POWER_DEGREE} on exponents and total degrees"
            )
        return base**exponent

    def _base(self) -> Polynomial:
        token = self._next()
        if token.group("rat"):
            return self.ring.const(parse_rational(token.group("rat")))
        if token.group("name"):
            name = token.group("name")
            if name not in self.ring.vars:
                raise ParseError(f"unknown variable {name!r}; ring has {self.ring.vars}")
            return self.ring.named(name)
        if token.group("op") != "(":
            raise ParseError(f"unexpected token {token.group()!r} in polynomial")
        value = self._nested(self._expr)
        if self._next().group("op") != ")":
            raise ParseError("expected ')' in polynomial")
        return value


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse an expression like ``y1^2*y2 - 3/2`` into the given ring."""
    if not text.strip():
        raise ParseError("empty polynomial expression")
    # a first pass on degrees as written rejects an over-large power or
    # product before any polynomial is built
    _PolyParser(text, _DegreeRing(ring.vars)).parse()
    return _PolyParser(text, ring).parse()
