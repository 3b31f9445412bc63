"""Shared test utilities: hypothesis strategies for random polynomials, and
the reference computations the library is checked against."""

from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from pardual.elimination import BinaryForm
from pardual.polyring import (
    NUM_VARS,
    VAR_NAMES,
    X1,
    X2,
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


def as_binary_form(p):
    """Read p as a binary form in (x1, x2) with coefficients in the other variables."""
    if not p:
        raise ValueError("the zero polynomial is not a binary form")
    degree = None
    grouped = {}
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


def homogenize(p, new_var):
    """Lift p to a homogeneous polynomial of its total degree using new_var."""
    if not p:
        raise ValueError("cannot homogenize the zero polynomial")
    if new_var in variables(p):
        raise ValueError(f"homogenizing variable {VAR_NAMES[new_var]} already occurs")
    n = total_degree(p)
    terms = {}
    for mono, coeff in p.terms.items():
        exps = list(exponents(mono))
        exps[new_var] = n - sum(exps)
        terms[monomial(range(NUM_VARS), exps)] = coeff
    return Polynomial(terms)


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


def form_polynomial(form):
    """The binary form as a polynomial: the inverse of as_binary_form."""
    x1, x2 = Polynomial.variable(X1), Polynomial.variable(X2)
    return sum((c * x1 ** i * x2 ** (form.degree - i) for i, c in enumerate(form.coeffs)),
               Polynomial())


def sylvester_matrix(f, g):
    """(n+m) x (n+m) Sylvester matrix of binary forms, F rows first,
    descending powers."""
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
