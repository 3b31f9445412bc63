"""Shared test utilities: hypothesis strategies for random polynomials, and
the reference computations the library is checked against."""

from fractions import Fraction

from hypothesis import strategies as st

from pardual.polyring import (
    NUM_VARS,
    VAR_NAMES,
    X1,
    X2,
    Polynomial,
    exponents,
    monomial,
    sorted_terms,
)


@st.composite
def monomials(draw, variables=(X1, X2), max_degree=4):
    """A monomial of degree <= max_degree in variables (registry order)."""
    remaining = max_degree
    exps = []
    for _ in variables:
        exps.append(draw(st.integers(min_value=0, max_value=remaining)))
        remaining -= exps[-1]
    return monomial(variables, exps)


@st.composite
def polynomials(draw, variables=(X1, X2), max_terms=8, max_degree=4,
                min_coeff=-9, max_coeff=9):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = draw(monomials(variables=variables, max_degree=max_degree))
        coeff = draw(st.integers(min_value=min_coeff, max_value=max_coeff))
        terms[mono] = Fraction(coeff)
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
