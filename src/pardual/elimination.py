"""Sylvester resultants of binary forms in (x1, x2) whose coefficients are
polynomials in the gradient directions (eta, xi, psi) or in the image
coordinates (x, y).

The matrix layout matches the classical display: for forms F of degree n
and G of degree m there are m shifted rows of F's coefficients followed by
n shifted rows of G's, each row running from the x1^deg coefficient down
to the x2^deg one.

The resultant is not expanded symbolically; it is evaluated and
interpolated.  Its degree in each variable v the coefficients use is at
most D_v = m*maxdeg_v(F) + n*maxdeg_v(G), so its values on a tensor grid
of D_v + 1 consecutive integers per variable, centred on zero to keep them
small, determine it.  At each grid point the Sylvester matrix has integer
entries and fraction-free Bareiss elimination takes its determinant
exactly; the values are then interpolated one axis at a time in integer
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, lcm
from typing import Iterator, Sequence

from .polyring import (
    ETA,
    PSI,
    VAR_NAMES,
    X,
    X1,
    X2,
    XI,
    Y,
    Monomial,
    Polynomial,
    variables,
)

FORM_VARS = frozenset({ETA, XI, PSI, X, Y})


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
                raise ValueError(
                    f"form coefficients may only use eta, xi, psi, x, y (found {names})")


def as_binary_form(p: Polynomial) -> BinaryForm:
    """Read p as a binary form in (x1, x2) with coefficients in the other variables."""
    if not p:
        raise ValueError("the zero polynomial is not a binary form")
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


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination: every interior division is exact, so it is taken with //.
    Pivot by swapping in the first row below with a nonzero entry."""
    rows = [list(row) for row in matrix]
    size = len(rows)
    sign = 1
    previous = 1
    for k in range(size - 1):
        if not rows[k][k]:
            for r in range(k + 1, size):
                if rows[r][k]:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for i in range(k + 1, size):
            row = rows[i]
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (pivot * row[j] - lead * pivot_row[j]) // previous
        previous = pivot
    return sign * rows[size - 1][size - 1]


def resultant(f: BinaryForm, g: BinaryForm) -> Polynomial:
    """Determinant of the Sylvester matrix; identically zero exactly when
    the forms share a common nonconstant factor."""
    n, m = f.degree, g.degree
    # Rational forms are scaled to integer ones: Res(cF, dG) = c^m d^n Res(F, G).
    f_scale, g_scale = _denominator(f), _denominator(g)
    matrix = sylvester_matrix(_scaled(f, f_scale), _scaled(g, g_scale))

    used = sorted(frozenset().union(*map(variables, f.coeffs + g.coeffs)))
    bounds = [m * _max_degree(f, v) + n * _max_degree(g, v) for v in used]
    axes = [range(-(bound // 2), bound - bound // 2 + 1) for bound in bounds]

    # Each distinct entry, zero included, is evaluated once on the whole
    # grid; the matrix at a grid point picks its entries out by index.
    entries: dict[Polynomial, int] = {}
    template = [[entries.setdefault(p, len(entries)) for p in row] for row in matrix]
    columns = [_grid_values(_integer_terms(p, used), axes) for p in entries]
    values = [determinant([[point[i] for i in row] for row in template])
              for point in zip(*columns)]
    _interpolate_grid(values, axes)
    divisor = f_scale ** m * g_scale ** n
    return Polynomial({
        tuple((v, e) for v, e in zip(used, exps) if e): Fraction(value, divisor)
        for exps, value in zip(product(*(range(len(axis)) for axis in axes)), values)
        if value
    })


def _max_degree(form: BinaryForm, var: int) -> int:
    return max((dict(mono).get(var, 0) for p in form.coeffs for mono in p.terms), default=0)


def _denominator(form: BinaryForm) -> int:
    return lcm(*(c.denominator for p in form.coeffs for c in p.terms.values()))


def _scaled(form: BinaryForm, scale: int) -> BinaryForm:
    return form if scale == 1 else BinaryForm(form.degree, tuple(p * scale for p in form.coeffs))


def _integer_terms(p: Polynomial, used: list[int]) -> dict[tuple[int, ...], int]:
    """p, whose coefficients are integers, as {exponents over used: coefficient}."""
    terms = {}
    for mono, coeff in p.terms.items():
        exps = dict(mono)
        terms[tuple(exps.get(v, 0) for v in used)] = coeff.numerator
    return terms


def _grid_values(terms: dict[tuple[int, ...], int], axes: list[range]) -> Iterator[int]:
    """Values at every point of the tensor grid, last axis fastest (the
    order of itertools.product), fixing one variable at a time.  They are
    generated as consumed, so no grid of entry values is ever stored."""
    if not axes:
        yield terms.get((), 0)
        return
    if len(axes) == 1:
        dense = [0] * (max((e for e, in terms), default=0) + 1)
        for (e,), coeff in terms.items():
            dense[e] = coeff
        dense.reverse()
        for t in axes[0]:
            value = 0
            for coeff in dense:
                value = value * t + coeff
            yield value
        return
    for t in axes[0]:
        reduced: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            rest = exps[1:]
            reduced[rest] = reduced.get(rest, 0) + coeff * t ** exps[0]
        yield from _grid_values(reduced, axes[1:])


def _interpolate_grid(values: list[int], axes: list[range]) -> None:
    """In place, one axis at a time: the values along each line of the grid
    become the coefficients of their interpolant, so that in the end the
    entry at grid index (i, j, ...) is the coefficient of v1^i * v2^j * ..."""
    stride = len(values)
    for axis in axes:
        size = len(axis)
        stride //= size
        block = stride * size
        for base in range(0, len(values), block):
            for first in range(base, base + stride):
                line = slice(first, first + block, stride)
                values[line] = _interpolate(values[line], axis.start)


def _interpolate(values: list[int], start: int) -> list[int]:
    """Ascending coefficients of the polynomial of degree < len(values) that
    takes values[i] at start + i, when its coefficients are integers.

    Newton's forward form, p(t) = sum over k of (k-th forward difference of
    the values) / k! * prod_{i<k} (t - start - i), is multiplied through by
    d! (d = len(values) - 1) so that every step stays in the integers,
    expanded by Horner's rule and divided by d! at the end."""
    d = len(values) - 1
    diffs = list(values)
    for k in range(1, d + 1):
        for i in range(d, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    poly = [diffs[d]]
    weight = 1  # d! / k!
    for k in range(d - 1, -1, -1):
        weight *= k + 1
        node = start + k
        poly = ([diffs[k] * weight - node * poly[0]]
                + [poly[i - 1] - node * poly[i] for i in range(1, len(poly))]
                + [poly[-1]])
    scale = factorial(d)
    return [c // scale for c in poly]
