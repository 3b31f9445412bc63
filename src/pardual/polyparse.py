"""Text form of polynomials: a tiny expression language plus the canonical
printer.  The grammar below is the input format of the CLI:

    expr     := '-'? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | var | '(' expr ')'
    rational := uint ('/' uint)?
    var      := x1 | x2 | x | y

One regular expression of ASCII classes tokenizes: uint is [0-9]+, a
name is [A-Za-z][A-Za-z0-9_]*, and space, tab, CR and LF are insignificant
whitespace; any other character, a Unicode digit or letter included, is
an "unexpected character" error.  There is no implicit multiplication,
so "2x1" is a syntax error.  Error offsets are 1-based byte positions.
Exponents are capped at MAX_EXPONENT, and every product and power is
refused before it is expanded when its total degree would exceed
MAX_DEGREE, its predicted term count would exceed MAX_TERMS, or its
predicted coefficients could exceed 10^MAX_COEFF_DIGITS; a sum is
refused once it holds more than MAX_TERMS terms.  The term prediction
is the smaller of two bounds: the number of ways to pick one term from
each factor, and the number of monomials of that degree or less in the
variables the factors use.  The coefficient prediction
writes each factor as an integer polynomial P over the lcm D of its
denominators: a product's numerators are at most the product of the
factors' sums |P|_1 of absolute values, and its denominators divide the
product of their D.  A literal of more than MAX_COEFF_DIGITS digits is
refused before it is converted; one of at most that many converts under
Python's default limit of 4300 digits on int-string conversion.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm, log10

from .polyring import (
    ONE_MONOMIAL,
    Polynomial,
    VAR_BY_NAME,
    VAR_NAMES,
    exponents,
    sorted_terms,
    total_degree,
    variables,
)

MAX_EXPONENT = 64
MAX_DEGREE = MAX_EXPONENT
MAX_TERMS = 4096
MAX_COEFF_DIGITS = 4000


class ParseError(ValueError):
    """Syntax or lookup failure, annotated with a 1-based byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_NUM = "num"
_NAME = "name"
_OP = "op"
_END = "end"

# Group names are the token kinds; whitespace has no group and any other
# character matches "bad".
_TOKEN = re.compile(r"(?P<num>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*/^()])|[ \t\r\n]+|(?P<bad>.)")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    for match in _TOKEN.finditer(text):
        kind, value, start = match.lastgroup, match.group(), match.start() + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", start)
        if kind == _NUM and len(value) > MAX_COEFF_DIGITS:
            raise ParseError(f"coefficient overflow (> 10^{MAX_COEFF_DIGITS})", start)
        if kind is not None:
            tokens.append((kind, int(value) if kind == _NUM else value, start))
    tokens.append((_END, None, len(text) + 1))
    return tokens


def _degree(p: Polynomial) -> int:
    return total_degree(p) if p else 0


def _coefficient_digits(p: Polynomial) -> float:
    """log10 of max(|P|_1, D) for p = P / D, D the lcm of p's denominators:
    the sum of these over a product's factors bounds its coefficients'
    numerators and denominators."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    norm = sum(abs(c.numerator) * (den // c.denominator) for c in p.terms.values())
    return log10(max(norm, den))


def _check_budget(degree: int, picks: int, digits: float, factors: tuple[Polynomial, ...],
                  position: int) -> None:
    """Refuse an expansion of the given total degree whose factors allow
    `picks` choices of one term each and whose coefficients are at most
    10^digits, before it is computed."""
    if degree > MAX_DEGREE:
        raise ParseError(f"degree overflow (> {MAX_DEGREE})", position)
    if digits > MAX_COEFF_DIGITS:
        raise ParseError(f"coefficient overflow (> 10^{MAX_COEFF_DIGITS})", position)
    used = len(frozenset().union(*map(variables, factors)))
    if min(picks, comb(used + degree, used)) > MAX_TERMS:
        raise ParseError(f"term count overflow (> {MAX_TERMS})", position)


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]]):
        self.tokens = tokens
        self.index = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, object, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def eat_op(self, op: str) -> bool:
        kind, value, _ = self.peek()
        if kind == _OP and value == op:
            self.index += 1
            return True
        return False

    def expr(self) -> Polynomial:
        # one map per sum, so that a sum of n terms takes time linear in n
        total: dict = {}
        sign = -1 if self.eat_op("-") else 1
        while True:
            for mono, coeff in self.term().terms.items():
                coeff = total.get(mono, 0) + sign * coeff
                if coeff:
                    total[mono] = coeff
                else:  # a cancelled term leaves the sum, as it leaves a Polynomial
                    del total[mono]
            _, _, position = self.peek()
            if len(total) > MAX_TERMS:
                raise ParseError(f"term count overflow (> {MAX_TERMS})", position)
            if self.eat_op("+"):
                sign = 1
            elif self.eat_op("-"):
                sign = -1
            else:
                return Polynomial(total)

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            _, _, position = self.peek()
            if not self.eat_op("*"):
                return value
            rhs = self.factor()
            _check_budget(_degree(value) + _degree(rhs), len(value.terms) * len(rhs.terms),
                          _coefficient_digits(value) + _coefficient_digits(rhs),
                          (value, rhs), position)
            value = value * rhs

    def factor(self) -> Polynomial:
        value = self.base()
        if self.eat_op("^"):
            kind, exponent, position = self.advance()
            if kind != _NUM:
                raise ParseError("expected integer exponent", position)
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent overflow (> {MAX_EXPONENT})", position)
            terms = len(value.terms)
            # a power picks a multiset of `exponent` terms of its base
            picks = comb(terms + exponent - 1, exponent) if terms else 1
            _check_budget(_degree(value) * exponent, picks,
                          _coefficient_digits(value) * exponent, (value,), position)
            value = value ** exponent
        return value

    def base(self) -> Polynomial:
        kind, value, position = self.advance()
        if kind == _NUM:
            numerator = value
            if self.eat_op("/"):
                kind2, denominator, pos2 = self.advance()
                if kind2 != _NUM:
                    raise ParseError("expected integer denominator", pos2)
                if denominator == 0:
                    raise ParseError("zero denominator", pos2)
                return Polynomial.constant(Fraction(numerator, denominator))
            return Polynomial.constant(numerator)
        if kind == _NAME:
            var = VAR_BY_NAME.get(value)
            if var is None:
                raise ParseError(f"unknown variable {value!r}", position)
            return Polynomial.variable(var)
        if kind == _OP and value == "(":
            inner = self.expr()
            if not self.eat_op(")"):
                _, _, pos2 = self.peek()
                raise ParseError("expected ')'", pos2)
            return inner
        raise ParseError("expected a number, variable or '('", position)


def parse(text: str) -> Polynomial:
    """Parse the expression language into an exact Polynomial; parentheses
    nested past the recursion limit are a ParseError where parsing stopped."""
    parser = _Parser(_tokenize(text))
    try:
        value = parser.expr()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", parser.peek()[2]) from None
    kind, _, position = parser.peek()
    if kind != _END:
        raise ParseError("unexpected trailing input", position)
    return value


def _mono_text(mono) -> str:
    return "*".join(name if exp == 1 else f"{name}^{exp}"
                    for name, exp in zip(VAR_NAMES, exponents(mono)) if exp)


def print_poly(p: Polynomial) -> str:
    """Canonical text: graded-lex term order, explicit '*' and '^'."""
    if not p:
        return "0"
    pieces: list[str] = []
    for position, (mono, coeff) in enumerate(sorted_terms(p)):
        magnitude = abs(coeff)
        if mono == ONE_MONOMIAL:
            body = str(magnitude)
        elif magnitude == 1:
            body = _mono_text(mono)
        else:
            body = f"{magnitude}*{_mono_text(mono)}"
        if position == 0:
            pieces.append(f"-{body}" if coeff < 0 else body)
        else:
            pieces.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(pieces)
