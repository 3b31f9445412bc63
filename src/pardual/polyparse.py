"""Text form of polynomials: a tiny expression language plus the canonical
printer.  The grammar below is the input format of the CLI:

    expr     := '-'? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | var | '(' expr ')'
    rational := uint ('/' uint)?
    var      := x1 | x2 | x3 | eta | xi | psi | x | y

Whitespace is insignificant; there is no implicit multiplication, so
"2x1" is a syntax error.  Error offsets are 1-based byte positions.
Exponents are capped at MAX_EXPONENT, and every product and power is
refused before it is expanded when its total degree would exceed
MAX_DEGREE or its predicted term count would exceed MAX_TERMS.  The
prediction is the smaller of two bounds: the number of ways to pick one
term from each factor, and the number of monomials of that degree or
less in the variables the factors use.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .polyring import (
    Polynomial,
    VAR_BY_NAME,
    VAR_NAMES,
    mono_degree,
    sorted_terms,
    total_degree,
    variables,
)

MAX_EXPONENT = 64
MAX_DEGREE = MAX_EXPONENT
MAX_TERMS = 4096


class ParseError(ValueError):
    """Syntax or lookup failure, annotated with a 1-based byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_NUM = "num"
_NAME = "name"
_OP = "op"
_END = "end"


_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    # ASCII-only: Unicode digit/letter lookalikes are rejected, not parsed.
    tokens: list[tuple[str, object, int]] = []
    i = 0
    size = len(text)
    while i < size:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        start = i + 1  # 1-based
        if c in _DIGITS:
            j = i
            while j < size and text[j] in _DIGITS:
                j += 1
            tokens.append((_NUM, int(text[i:j]), start))
            i = j
        elif c in _LETTERS:
            j = i
            while j < size and (text[j] in _LETTERS or text[j] in _DIGITS or text[j] == "_"):
                j += 1
            tokens.append((_NAME, text[i:j], start))
            i = j
        elif c in "+-*/^()":
            tokens.append((_OP, c, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", start)
    tokens.append((_END, None, size + 1))
    return tokens


def _degree(p: Polynomial) -> int:
    return total_degree(p) if p else 0


def _check_budget(degree: int, picks: int, factors: tuple[Polynomial, ...],
                  position: int) -> None:
    """Refuse an expansion of the given total degree whose factors allow
    `picks` choices of one term each, before it is computed."""
    if degree > MAX_DEGREE:
        raise ParseError(f"degree overflow (> {MAX_DEGREE})", position)
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
        negate = self.eat_op("-")
        value = self.term()
        if negate:
            value = -value
        while True:
            if self.eat_op("+"):
                value = value + self.term()
            elif self.eat_op("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> Polynomial:
        value = self.factor()
        while True:
            _, _, position = self.peek()
            if not self.eat_op("*"):
                return value
            rhs = self.factor()
            _check_budget(_degree(value) + _degree(rhs), len(value.terms) * len(rhs.terms),
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
            _check_budget(_degree(value) * exponent, picks, (value,), position)
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
    """Parse the expression language into an exact Polynomial."""
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    kind, _, position = parser.peek()
    if kind != _END:
        raise ParseError("unexpected trailing input", position)
    return value


def _mono_text(mono) -> str:
    parts = []
    for var, exp in sorted(mono):
        name = VAR_NAMES[var]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def print_poly(p: Polynomial) -> str:
    """Canonical text: graded-lex term order, explicit '*' and '^'."""
    if not p:
        return "0"
    pieces: list[str] = []
    for position, (mono, coeff) in enumerate(sorted_terms(p)):
        magnitude = abs(coeff)
        if mono_degree(mono) == 0:
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
