"""Exact sparse multivariate polynomial arithmetic over the rationals.

The variable set is a fixed eight-slot registry: the source-plane pair
(x1, x2), the homogenizing variable x3, the gradient-direction triple
(eta, xi, psi) and the image-plane pair (x, y).  Only this module knows
how a monomial is stored (a sorted tuple of (variable, exponent) pairs
with no zero exponents); every other module reads one with exponents()
and builds one with monomial().  A polynomial maps monomials to nonzero
rational coefficients, held as int or Fraction.  Every operation returns
through the constructor, the one place that drops zero coefficients and
stores an integral value as int (an int as it is, with no Fraction made
on the way), so rational terms that sum or multiply to an integer hold
an int too.  content_and_primitive takes each primitive coefficient as
coeff * lcm(denominators) // gcd(numerators), an exact int for an int or
a Fraction coefficient, so an integer polynomial (every primitive part,
every dual) costs no Fraction object per term.  Values are immutable and
every operation is a pure function, so everything here is safe to share
across threads.  No float ever enters the arithmetic; the one float view
is FloatForm, a polynomial compiled once for repeated evaluation in a
pair of variables.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

VarId = int

X1, X2, X3, ETA, XI, PSI, X, Y = range(8)
VAR_NAMES = ("x1", "x2", "x3", "eta", "xi", "psi", "x", "y")
VAR_BY_NAME = {name: index for index, name in enumerate(VAR_NAMES)}
NUM_VARS = len(VAR_NAMES)

# Distance between the parallel axes x1 and x2 in the image plane (x, y):
# the image map eta -> 1-x, xi -> x of dualize.dual_curve puts them at x = 0, 1.
DEFAULT_SPACING = 1.0

Monomial = tuple
ONE_MONOMIAL: Monomial = ()

Coefficient = int | Fraction


def mono_degree(mono: Monomial) -> int:
    return sum(exp for _, exp in mono)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for var, exp in b:
        exps[var] = exps.get(var, 0) + exp
    return tuple(sorted(exps.items()))


def exponents(mono: Monomial, over: Sequence[VarId] | None = None) -> tuple[int, ...]:
    """mono's exponents in the variables over (default: all), 0 where absent."""
    exps = [0] * NUM_VARS
    for var, exp in mono:
        exps[var] = exp
    # built from a list, the tuple has its exact size; one built from a generator is resized,
    # and freed ones pile up on CPython's tuple free list (dual-corpus pass peak +158 KiB)
    return tuple(exps if over is None else [exps[var] for var in over])


def monomial(over: Sequence[VarId], exps: Sequence[int]) -> Monomial:
    """The canonical monomial of exponents exps in the variables over (in registry order)."""
    return tuple((var, exp) for var, exp in zip(over, exps) if exp)


def _mono_key(mono: Monomial) -> tuple:
    # Graded lexicographic: total degree first, ties by the exponent
    # vector in registry order (x1 before x2 before ... before y).
    return (mono_degree(mono), exponents(mono))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.  A
    constant compares equal to its int or Fraction value; no hash is
    defined, so a Polynomial is neither a dict key nor a set member."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Coefficient] | None = None):
        data: dict[Monomial, Coefficient] = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = Fraction(coeff)
                    if coeff.denominator == 1:
                        coeff = coeff.numerator
                if coeff:
                    data[mono] = coeff
        self._terms = data

    @classmethod
    def constant(cls, value: Coefficient) -> "Polynomial":
        return cls({ONE_MONOMIAL: value})

    @classmethod
    def variable(cls, var: VarId) -> "Polynomial":
        if not 0 <= var < NUM_VARS:
            raise ValueError(f"variable index {var} outside the registry")
        return cls({monomial((var,), (1,)): 1})

    @property
    def terms(self) -> Mapping[Monomial, Coefficient]:
        return self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def _coerced(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other)
        return None

    def __add__(self, other) -> "Polynomial":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        result = dict(self._terms)
        for mono, coeff in rhs._terms.items():
            result[mono] = result.get(mono, 0) + coeff
        return Polynomial(result)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial({mono: -coeff for mono, coeff in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "Polynomial":
        lhs = self._coerced(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other) -> "Polynomial":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        result: dict[Monomial, Coefficient] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in rhs._terms.items():
                mono = mono_mul(mono_a, mono_b)
                result[mono] = result.get(mono, 0) + coeff_a * coeff_b
        return Polynomial(result)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __repr__(self) -> str:
        from . import polyparse

        return f"Polynomial({polyparse.print_poly(self)!r})"


def variables(p: Polynomial) -> frozenset[VarId]:
    return frozenset(var for mono in p.terms for var, _ in mono)


def sorted_terms(p: Polynomial) -> list[tuple[Monomial, Coefficient]]:
    """Terms in canonical order: graded-lex, highest first."""
    return sorted(p.terms.items(), key=lambda item: _mono_key(item[0]), reverse=True)


def total_degree(p: Polynomial) -> int:
    if not p:
        raise ValueError("total degree of the zero polynomial is undefined")
    return max(mono_degree(mono) for mono in p.terms)


def partial_derivative(p: Polynomial, var: VarId) -> Polynomial:
    result: dict[Monomial, Coefficient] = {}
    for mono, coeff in p.terms.items():
        exps = dict(mono)
        exp = exps.get(var)
        if not exp:
            continue
        if exp == 1:
            del exps[var]
        else:
            exps[var] = exp - 1
        result[tuple(sorted(exps.items()))] = coeff * exp
    return Polynomial(result)


def content_and_primitive(p: Polynomial) -> tuple[Fraction, Polynomial]:
    """Split p = content * primitive, the primitive part having coprime
    integer coefficients and a positive leading coefficient under the
    canonical graded-lex order."""
    if not p:
        raise ValueError("the zero polynomial has no content/primitive split")
    numerators = gcd(*(coeff.numerator for coeff in p.terms.values()))
    denominators = lcm(*(coeff.denominator for coeff in p.terms.values()))
    if p.terms[max(p.terms, key=_mono_key)] < 0:
        numerators = -numerators
    # exact: an int for an int or a Fraction coefficient, with no Fraction made for an int
    primitive = {mono: coeff * denominators // numerators for mono, coeff in p.terms.items()}
    return Fraction(numerators, denominators), Polynomial(primitive)


def evaluate_exact(p: Polynomial, point: Mapping[VarId, Fraction | int]) -> Fraction:
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        term = coeff
        for var, exp in mono:
            if var not in point:
                raise ValueError(f"variable {VAR_NAMES[var]} is unbound")
            term *= Fraction(point[var]) ** exp
        total += term
    return total


class FloatForm:
    """p compiled for repeated float evaluation in the axis pair ax < ay.

    The terms are held in canonical order as (float(coeff), exp_ax, exp_ay).
    A call computes each value with the float operations of a one-off
    evaluation of p, in the same order: term = c, then *= x**a, then
    *= y**b, summed from 0.0.  The tests keep that one-off evaluation
    (evaluate_float in tests/helpers.py) as the reference that each call
    must equal bit for bit.  A factor v**0 is 1.0 and multiplying by it is
    exact, so terms need no branch on a zero exponent.  No Horner scheme:
    it rounds differently and can flip the sign of a value near zero.

    line(var, value) groups the terms by their exponent of the other axis,
    so a value built from it rounds differently from a call; such a value
    is checked against the exact one, within a bound in units of
    max_abs_term, and not bit for bit.
    """

    __slots__ = ("axes", "degree", "terms", "_lines")

    def __init__(self, p: Polynomial, ax: VarId, ay: VarId):
        if not ax < ay:
            raise ValueError("the axis pair must be in registry order")
        stray = variables(p) - {ax, ay}
        if stray:
            raise ValueError(f"variable {VAR_NAMES[min(stray)]} is unbound")
        self.axes = (ax, ay)
        self.terms = tuple((float(coeff), *exponents(mono, self.axes))
                           for mono, coeff in sorted_terms(p))
        self.degree = max((a + b for _, a, b in self.terms), default=0)
        # line's terms along ax and along ay, as (c, a, b) with a the exponent
        # of the line's axis: a descending, and canonical within each a.  Each
        # coefficient's terms keep their canonical order, which within one b
        # is a descending (graded-lex), and equal powers of value are adjacent
        self._lines = tuple(tuple(sorted(terms, key=lambda term: -term[1]))
                            for terms in (self.terms, [(c, b, a) for c, a, b in self.terms]))

    def __call__(self, x: float, y: float) -> float:
        total = 0.0
        for c, a, b in self.terms:
            total += c * x ** a * y ** b
        return total

    def max_abs_term(self, x: float, y: float) -> float:
        """Largest |term| at (x, y); the scale for relative residuals."""
        x, y = abs(x), abs(y)
        worst = 0.0
        for c, a, b in self.terms:
            worst = max(worst, abs(c) * x ** a * y ** b)
        return worst

    def line(self, var: VarId, value: float) -> list[float]:
        """Dense coefficients in the other axis, ascending, of p restricted
        to var = value; degree + 1 of them.  Coefficient e sums c * value**a
        over the terms whose other exponent is e, in canonical order from
        0.0, where a is the term's exponent of var.  The terms come grouped
        by a, so each distinct value**a is taken once per call, with **."""
        if var not in self.axes:
            raise ValueError(f"variable {VAR_NAMES[var]} is not an axis of this form")
        coeffs = [0.0] * (self.degree + 1)
        last = -1
        for c, a, b in self._lines[var == self.axes[1]]:
            if a != last:
                power = value ** a
                last = a
            coeffs[b] += c * power
        return coeffs
