"""Sylvester resultants of binary forms in (x1, x2) whose coefficients are
polynomials in the gradient directions (eta, xi, psi) or in the image
coordinates (x, y).

The resultant is the determinant of the classical Sylvester matrix: for
forms F of degree n and G of degree m, m shifted rows of F's coefficients
followed by n shifted rows of G's, each row running from the x1^deg
coefficient down to the x2^deg one.  The degrees are the formal ones, so a
vanishing x1^deg coefficient still counts.

The resultant is not expanded symbolically; it is evaluated and
interpolated.  Its degree in each variable v the coefficients use is at
most D_v = m*maxdeg_v(F) + n*maxdeg_v(G), so its values on a tensor grid
of D_v + 1 consecutive integers per variable, centred on zero to keep them
small, determine it.  At each grid point the two forms have integer
coefficients, and their resultant is taken without any matrix by the
subresultant polynomial remainder sequence in O(nm) integer operations
(W. S. Brown and J. F. Traub, On Euclid's algorithm and the theory of
subresultants, JACM 18, 1971).  The PRS works with actual degrees, so the
formal ones are restored first: if both x1^deg coefficients vanish, the
forms share the root x2 = 0 and the resultant is 0; if only F's does,
Res(F, G) = (-1)^(nm) Res(G, F); and with lc(F) nonzero, each of the k
vanishing leading coefficients of G contributes a factor lc(F), since
Res(F, G) = lc(F)^m * prod of G over the roots of F.  The values are then
interpolated one axis at a time in integer arithmetic.  Every division on
the way is exact by the theory, and one that leaves a remainder raises
ArithmeticError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, lcm
from typing import Iterator, NamedTuple, Sequence

from .polyring import (
    ETA,
    NUM_VARS,
    PSI,
    VAR_NAMES,
    X,
    X1,
    X2,
    XI,
    Y,
    Monomial,
    Polynomial,
    exponents,
    monomial,
    variables,
)

FORM_VARS = frozenset({ETA, XI, PSI, X, Y})


class _BinaryFormFields(NamedTuple):
    degree: int
    coeffs: tuple[Polynomial, ...]


class BinaryForm(_BinaryFormFields):
    """Homogeneous form in (x1, x2); coeffs[i] multiplies x1^i * x2^(degree-i)."""

    __slots__ = ()

    def __new__(cls, degree: int, coeffs: tuple[Polynomial, ...]):
        if degree < 0:
            raise ValueError("binary form degree must be non-negative")
        if len(coeffs) != degree + 1:
            raise ValueError("binary form needs degree + 1 coefficients")
        if not any(coeffs):
            raise ValueError("binary form must have a nonzero coefficient")
        for coeff in coeffs:
            stray = variables(coeff) - FORM_VARS
            if stray:
                names = ", ".join(VAR_NAMES[v] for v in sorted(stray))
                raise ValueError(
                    f"form coefficients may only use eta, xi, psi, x, y (found {names})")
        return super().__new__(cls, degree, coeffs)


def as_binary_form(p: Polynomial) -> BinaryForm:
    """Read p as a binary form in (x1, x2) with coefficients in the other variables."""
    if not p:
        raise ValueError("the zero polynomial is not a binary form")
    degree = None
    grouped: dict[int, dict[Monomial, Fraction]] = {}
    # the other variables in registry order; a stray x3 is kept for BinaryForm to refuse
    others = [var for var in range(NUM_VARS) if var not in (X1, X2)]
    for mono, coeff in p.terms.items():
        e1, e2, *rest = exponents(mono, (X1, X2, *others))
        total = e1 + e2
        if degree is None:
            degree = total
        elif total != degree:
            raise ValueError("polynomial is not homogeneous in (x1, x2)")
        grouped.setdefault(e1, {})[monomial(others, rest)] = coeff
    coeffs = tuple(Polynomial(grouped.get(i, {})) for i in range(degree + 1))
    return BinaryForm(degree, coeffs)


def resultant(f: BinaryForm, g: BinaryForm) -> Polynomial:
    """Determinant of the Sylvester matrix; identically zero exactly when
    the forms share a common nonconstant factor."""
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ValueError("Sylvester matrix needs forms of degree at least 1")
    used = sorted(frozenset().union(*map(variables, f.coeffs + g.coeffs)))
    # Rational forms are scaled to integer ones: Res(cF, dG) = c^m d^n Res(F, G).
    f_scale, g_scale = _denominator(f), _denominator(g)
    coeffs = [{exponents(mono, used): (c * scale).numerator for mono, c in p.terms.items()}
              for form, scale in ((f, f_scale), (g, g_scale)) for p in form.coeffs]
    bounds = [m * _max_degree(coeffs[:n + 1], axis) + n * _max_degree(coeffs[n + 1:], axis)
              for axis in range(len(used))]
    axes = [range(-(bound // 2), bound - bound // 2 + 1) for bound in bounds]

    columns = [_grid_values(coeff, axes) for coeff in coeffs]
    values = [_integer_resultant(point[:n + 1], point[n + 1:]) for point in zip(*columns)]
    _interpolate_grid(values, axes)
    divisor = f_scale ** m * g_scale ** n
    return Polynomial({
        monomial(used, exps): Fraction(value, divisor)
        for exps, value in zip(product(*(range(len(axis)) for axis in axes)), values)
        if value
    })


def _integer_resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Sylvester determinant of integer forms with ascending coefficients
    f and g, at their formal degrees len - 1 (both at least 1)."""
    n, m = len(f) - 1, len(g) - 1
    sign = 1
    if not f[n]:
        if not g[m]:
            return 0  # a shared root at x2 = 0: the first column is zero
        f, g, n, m = g, f, m, n
        sign = -1 if n * m % 2 else 1
    b = g[::-1]
    k = 0
    while not b[k]:
        k += 1
        if k > m:
            return 0
    return sign * f[n] ** k * _subresultant_prs(f[::-1], b[k:])


def _subresultant_prs(a: Sequence[int], b: Sequence[int]) -> int:
    """Resultant of integer polynomials with descending coefficients and
    nonzero leading ones, by the subresultant polynomial remainder sequence
    (Brown & Traub 1971): pseudo-remainders divided by g*h^delta, with
    h updated to g^delta / h^(delta-1)."""
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da * db % 2:
            sign = -sign
        lead = b[0]
        tail = b[1:]
        r = a
        for _ in range(delta + 1):
            q = r[0]
            r = [lead * x - q * y for x, y in zip(r[1:], tail)] + [lead * x for x in r[db + 1:]]
        while not r[0]:
            del r[0]
            if not r:
                return 0
        a, b = b, _exact_quotients(r, g * h ** delta)
        g = lead
        if delta:
            h = _exact_quotients([g ** delta], h ** (delta - 1))[0]
    da = len(a) - 1
    return sign * _exact_quotients([b[0] ** da], h ** (da - 1))[0]


def _exact_quotients(values: list[int], divisor: int) -> list[int]:
    """values // divisor, raising if any division leaves a remainder."""
    if divisor == 1:
        return values
    quotients = []
    for value in values:
        quotient, remainder = divmod(value, divisor)
        if remainder:
            raise ArithmeticError(f"inexact division of {value} by {divisor}")
        quotients.append(quotient)
    return quotients


def _max_degree(coeffs: list[dict[tuple[int, ...], int]], axis: int) -> int:
    return max((exps[axis] for coeff in coeffs for exps in coeff), default=0)


def _denominator(form: BinaryForm) -> int:
    return lcm(*(c.denominator for p in form.coeffs for c in p.terms.values()))


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
    return _exact_quotients(poly, factorial(d))
