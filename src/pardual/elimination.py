"""Sylvester resultants of binary forms in (x1, x2) whose coefficients are
polynomials in the gradient directions (eta, xi, psi).

The matrix layout matches the classical display: for forms F of degree n
and G of degree m there are m shifted rows of F's coefficients followed by
n shifted rows of G's, each row running from the x1^deg coefficient down
to the x2^deg one.  Determinants are taken exactly by fraction-free
Bareiss elimination at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polyring import (
    ETA,
    PSI,
    VAR_NAMES,
    XI,
    Monomial,
    Polynomial,
    exact_divide,
    variables,
)

FORM_VARS = frozenset({ETA, XI, PSI})


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous form in (x1, x2); coeffs[i] multiplies x1^i * x2^(degree-i)."""

    degree: int
    coeffs: tuple[Polynomial, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("binary form degree must be non-negative")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("binary form needs degree + 1 coefficients")
        if not any(self.coeffs):
            raise ValueError("binary form must have a nonzero coefficient")
        for coeff in self.coeffs:
            stray = variables(coeff) - FORM_VARS
            if stray:
                names = ", ".join(VAR_NAMES[v] for v in sorted(stray))
                raise ValueError(f"form coefficients may only use eta, xi, psi (found {names})")


def as_binary_form(p: Polynomial) -> BinaryForm:
    """Read p as a binary form in (x1, x2) with (eta, xi, psi) coefficients."""
    if not p:
        raise ValueError("the zero polynomial is not a binary form")
    from .polyring import X1, X2

    degree = None
    grouped: dict[int, dict[Monomial, Fraction]] = {}
    for mono, coeff in p.terms.items():
        exps = dict(mono)
        e1 = exps.pop(X1, 0)
        e2 = exps.pop(X2, 0)
        total = e1 + e2
        if degree is None:
            degree = total
        elif total != degree:
            raise ValueError("polynomial is not homogeneous in (x1, x2)")
        rest = tuple(sorted(exps.items()))
        grouped.setdefault(e1, {})[rest] = coeff
    coeffs = tuple(Polynomial(grouped.get(i, {})) for i in range(degree + 1))
    return BinaryForm(degree, coeffs)


Matrix = tuple[tuple[Polynomial, ...], ...]


def sylvester_matrix(f: BinaryForm, g: BinaryForm) -> Matrix:
    """(n+m) x (n+m) Sylvester matrix, F rows first, descending powers."""
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ValueError("Sylvester matrix needs forms of degree at least 1")
    size = n + m
    zero = Polynomial()
    rows = [[zero] * size for _ in range(size)]
    for r in range(m):
        for j in range(n + 1):
            rows[r][r + j] = f.coeffs[n - j]
    for s in range(n):
        for j in range(m + 1):
            rows[m + s][s + j] = g.coeffs[m - j]
    return tuple(tuple(row) for row in rows)


def determinant(matrix: Matrix) -> Polynomial:
    """Fraction-free Bareiss elimination: every interior division is exact
    in the ring.  Pivot by swapping in the first structurally nonzero row."""
    rows = [list(row) for row in matrix]
    size = len(rows)
    sign = 1
    previous = Polynomial.constant(1)
    for k in range(size - 1):
        if not rows[k][k]:
            for r in range(k + 1, size):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return Polynomial()
        pivot = rows[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                numerator = pivot * rows[i][j] - rows[i][k] * rows[k][j]
                rows[i][j] = exact_divide(numerator, previous) if k else numerator
        previous = pivot
    det = rows[size - 1][size - 1]
    return -det if sign < 0 else det


def resultant(f: BinaryForm, g: BinaryForm) -> Polynomial:
    """Determinant of the Sylvester matrix; identically zero exactly when
    the forms share a common nonconstant factor."""
    return determinant(sylvester_matrix(f, g))
