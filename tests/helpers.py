"""Shared test utilities: hypothesis strategies for random polynomials, and
the reference computations the library is checked against."""

import math
import struct
from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from pardual.elimination import BinaryForm
from pardual.plot import _column_values
from pardual.polyring import (
    NUM_VARS,
    VAR_NAMES,
    X,
    X1,
    X2,
    Y,
    FloatForm,
    Polynomial,
    exponents,
    monomial,
    sorted_terms,
    total_degree,
    variables,
)


def _exponent_vectors(count, total):
    """Every vector of count non-negative integers summing to total."""
    if count == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _exponent_vectors(count - 1, total - first):
            yield (first, *rest)


@cache
def monomial_table(variables, max_degree):
    """Row d holds every monomial of degree d in variables, for d = 0..max_degree."""
    return tuple(tuple(monomial(variables, exps) for exps in _exponent_vectors(len(variables), d))
                 for d in range(max_degree + 1))


@st.composite
def monomials(draw, variables=(X1, X2), max_degree=4):
    """A monomial of degree <= max_degree in variables (registry order): a
    degree, then an index into that degree's row of monomial_table.  Both
    draws shrink to 0, so a monomial shrinks to ONE_MONOMIAL."""
    row = monomial_table(tuple(variables), max_degree)[draw(st.integers(0, max_degree))]
    return row[draw(st.integers(0, len(row) - 1))]


@st.composite
def polynomials(draw, variables=(X1, X2), max_terms=8, max_degree=4,
                min_coeff=-9, max_coeff=9):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    # built once, not per term: a strategy object is validated on each first draw
    monos = monomials(variables=variables, max_degree=max_degree)
    coeffs = st.integers(min_value=min_coeff, max_value=max_coeff)
    terms = {}
    for _ in range(n_terms):
        mono = draw(monos)
        terms[mono] = Fraction(draw(coeffs))
    return Polynomial(terms)


def nonzero_polynomials(variables=(X1, X2), **kwargs):
    return polynomials(variables=variables, **kwargs).filter(bool)


@st.composite
def dense_curves(draw, max_degree=4):
    """Every monomial of degree <= n, n in 2..max_degree, with a nonzero
    coefficient in [-9, 9]."""
    degree = draw(st.integers(2, max_degree))
    coeffs = st.integers(-9, 9).filter(bool)
    return Polynomial({monomial((X1, X2), (a, total - a)): draw(coeffs)
                       for total in range(degree + 1) for a in range(total + 1)})


all_variable_polynomials = polynomials(variables=tuple(range(NUM_VARS)), max_degree=6)


def evaluate_float(p, point):
    """One-off float value of p at point (a VarId -> float mapping), its
    terms summed in canonical order: term = c, then *= v**e per variable in
    registry order, summed from 0.0.  This is the reference that FloatForm
    reproduces bit for bit."""
    total = 0.0
    for mono, coeff in sorted_terms(p):
        term = float(coeff)
        for var, exp in enumerate(exponents(mono)):
            if not exp:
                continue
            if var not in point:
                raise ValueError(f"variable {VAR_NAMES[var]} is unbound")
            term *= float(point[var]) ** exp
        total += term
    return total


def coefficient_map(p):
    """p, a polynomial in (x, y), as a form coefficient {(i, j): coefficient of x^i * y^j}."""
    stray = variables(p) - {X, Y}
    if stray:
        raise ValueError(f"a form coefficient takes a polynomial in x, y (found "
                         f"{', '.join(VAR_NAMES[var] for var in sorted(stray))})")
    return {exponents(mono, (X, Y)): coeff for mono, coeff in p.terms.items()}


def coefficient_polynomial(coeff):
    """A form coefficient as a polynomial in (x, y): the inverse of coefficient_map."""
    return Polynomial({monomial((X, Y), pair): c for pair, c in coeff.items()})


def binary_form(degree, coeffs):
    """BinaryForm(degree, coeffs) for coefficients given as polynomials in (x, y)."""
    return BinaryForm(degree, tuple(map(coefficient_map, coeffs)))


def as_binary_form(p):
    """Read p as a binary form in (x1, x2) with coefficients in (x, y)."""
    if not p:
        raise ValueError("the zero polynomial is not a binary form")
    degree = None
    grouped = {}
    for mono, coeff in p.terms.items():
        e1, e2, a, b = exponents(mono, (X1, X2, X, Y))
        total = e1 + e2
        if degree is None:
            degree = total
        elif total != degree:
            raise ValueError("polynomial is not homogeneous in (x1, x2)")
        grouped.setdefault(e1, {})[a, b] = coeff
    return BinaryForm(degree, tuple(grouped.get(i, {}) for i in range(degree + 1)))


def homogenized(p, u, v, w):
    """F(u, v, w) for p in (x1, x2) of total degree n homogenized to
    F(x1, x2, x3) = x3^n * p(x1/x3, x2/x3): each term c * x1^a * x2^b of p
    gives c * u^a * v^b * w^(n-a-b)."""
    if not p:
        raise ValueError("cannot homogenize the zero polynomial")
    stray = variables(p) - {X1, X2}
    if stray:
        raise ValueError(f"homogenized takes a polynomial in x1, x2 (found "
                         f"{', '.join(VAR_NAMES[var] for var in sorted(stray))})")
    n = total_degree(p)
    result = Polynomial()
    for mono, coeff in p.terms.items():
        a, b = exponents(mono, (X1, X2))
        result = result + coeff * u ** a * v ** b * w ** (n - a - b)
    return result


def substitute(p, bindings):
    """Simultaneous substitution of polynomials for variables, fully expanded."""
    result = Polynomial()
    for mono, coeff in p.terms.items():
        exps = exponents(mono)
        kept = [0 if var in bindings else exp for var, exp in enumerate(exps)]
        term = Polynomial({monomial(range(NUM_VARS), kept): coeff})
        for var, image in bindings.items():
            term = term * image ** exps[var]
        result = result + term
    return result


def exact_quotient(h, p):
    """h / p where p divides h, else None: long division by p's leading term
    in graded-lex order, over the rationals.  Where p divides h, the leading
    term of each remainder is a multiple of p's, so the division ends at 0."""
    def grade(exps):
        return sum(exps), exps

    divisor = {exponents(mono): Fraction(c) for mono, c in p.terms.items()}
    lead = max(divisor, key=grade)
    rest = {exponents(mono): Fraction(c) for mono, c in h.terms.items()}
    quotient = {}
    while rest:
        top = max(rest, key=grade)
        shift = tuple(a - b for a, b in zip(top, lead))
        if min(shift) < 0:
            return None
        factor = quotient[shift] = rest[top] / divisor[lead]
        for exps, c in divisor.items():
            key = tuple(a + b for a, b in zip(exps, shift))
            value = rest.get(key, 0) - factor * c
            if value:
                rest[key] = value
            else:
                del rest[key]
    return Polynomial({monomial(range(NUM_VARS), exps): c for exps, c in quotient.items()})


def form_polynomial(form):
    """The binary form as a polynomial: the inverse of as_binary_form."""
    x1, x2 = Polynomial.variable(X1), Polynomial.variable(X2)
    return sum((coefficient_polynomial(c) * x1 ** i * x2 ** (form.degree - i)
                for i, c in enumerate(form.coeffs)), Polynomial())


def sylvester_matrix(f, g):
    """(n+m) x (n+m) Sylvester matrix of binary forms, F rows first,
    descending powers, its entries the forms' coefficients as polynomials."""
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ValueError("Sylvester matrix needs forms of degree at least 1")
    size = n + m
    zero = Polynomial()
    rows = [[zero] * size for _ in range(size)]
    f_coeffs, g_coeffs = ([coefficient_polynomial(c) for c in form.coeffs] for form in (f, g))
    for r in range(m):
        for j in range(n + 1):
            rows[r][r + j] = f_coeffs[n - j]
    for s in range(n):
        for j in range(m + 1):
            rows[m + s][s + j] = g_coeffs[m - j]
    return tuple(tuple(row) for row in rows)


def determinant(matrix):
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


def conic_determinant(m):
    """Determinant of a ConicMatrix's symmetric matrix; zero when the conic
    is degenerate."""
    return (m.a1 * (m.a2 * m.a3 - m.a6 ** 2)
            - m.a4 * (m.a4 * m.a3 - m.a6 * m.a5)
            + m.a5 * (m.a4 * m.a6 - m.a2 * m.a5))


# -- marching squares, one cell at a time -------------------------------------

def cellwise_trace(p, ax, ay, vp, grid):
    """plot.trace_implicit as it was before crossings were shared between
    cells, kept as its reference for that sharing: the same columns, from
    plot._column_values on every grid column, and the same sign masks, but
    every marched cell interpolates each of its crossed edges itself, and
    a column's finiteness is checked through its sum.  The column values
    are checked on their own against grouped_column in tests/test_plot.py."""
    form = FloatForm(p, ax, ay)
    xs = [vp.xmin + i * (vp.xmax - vp.xmin) / grid for i in range(grid + 1)]
    ys = [vp.ymin + j * (vp.ymax - vp.ymin) / grid for j in range(grid + 1)]
    y_powers = [[yv ** b for yv in ys] for b in range(1, form.degree + 1)]
    cells = (1 << grid) - 1
    pack = struct.Struct(f">{grid + 1}d").pack
    sign_digits = b"0" * 128 + b"1" * 128

    def column(xv):
        c0, *coeffs = form.line(ax, xv)
        values = _column_values(c0 or 0.0, coeffs, ys, y_powers)
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise OverflowError(f"grid column at x = {xv!r} is not finite")
        return values, int(pack(*values)[-8::-8].translate(sign_digits), 2)

    def interp(x0, y0, v0, x1, y1, v1):
        t = v0 / (v0 - v1)
        return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    segments = []
    right, right_mask = column(xs[0])
    for i in range(grid):
        left, left_mask = right, right_mask
        right, right_mask = column(xs[i + 1])
        crossed = ((left_mask ^ right_mask) | (left_mask ^ (left_mask >> 1))
                   | (right_mask ^ (right_mask >> 1))) & cells
        while crossed:
            low = crossed & -crossed
            crossed ^= low
            j = low.bit_length() - 1
            bl = left[j]
            br = right[j]
            tr = right[j + 1]
            tl = left[j + 1]
            crossings = []
            if (bl < 0) != (br < 0):
                crossings.append(interp(xs[i], ys[j], bl, xs[i + 1], ys[j], br))
            if (bl < 0) != (tl < 0):
                crossings.append(interp(xs[i], ys[j], bl, xs[i], ys[j + 1], tl))
            if (br < 0) != (tr < 0):
                crossings.append(interp(xs[i + 1], ys[j], br, xs[i + 1], ys[j + 1], tr))
            if (tl < 0) != (tr < 0):
                crossings.append(interp(xs[i], ys[j + 1], tl, xs[i + 1], ys[j + 1], tr))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
                continue
            on_bottom, on_left, on_right, on_top = crossings
            center, _ = form.at(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
            if bl < 0:
                segments += ([(on_left, on_top), (on_bottom, on_right)] if center < 0
                             else [(on_left, on_bottom), (on_right, on_top)])
            else:
                segments += ([(on_bottom, on_left), (on_right, on_top)] if center < 0
                             else [(on_bottom, on_right), (on_top, on_left)])
    return segments
