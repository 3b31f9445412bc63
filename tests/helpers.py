"""Shared test utilities: hypothesis strategies for random polynomials, and
the reference computations the library is checked against."""

import math
import struct
from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from pardual.dualize import ImplicitCurve, dual_curve
from pardual.elimination import BinaryForm
from pardual.plot import Viewport, _column_values, trace_implicit
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
    partial_derivative,
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


def gradient(f, point):
    """(f1, f2), the partials of f in (x1, x2) at point = (x1, x2), by evaluate_float."""
    at = {X1: point[0], X2: point[1]}
    return tuple(evaluate_float(partial_derivative(f, var), at) for var in (X1, X2))


def point_image(f, point):
    """The point-image map of a point (x1, x2) on f = 0, the paper's
    fundamental duality: (x, y) = (f2, x1*f1 + x2*f2) / (f1 + f2), the
    partials by evaluate_float.  A slope-1 tangent's image is ideal, and
    the division raises ZeroDivisionError where f1 + f2 is 0.0."""
    g1, g2 = gradient(f, point)
    denominator = g1 + g2
    return g2 / denominator, (point[0] * g1 + point[1] * g2) / denominator


def line_dual_point(m, b, d=1.0):
    """The dual point of the line x2 = m*x1 + b, parallel axes d apart: the
    polylines of all the line's points pass through it.  A slope-1 line's is
    ideal, and the division raises ZeroDivisionError."""
    return d / (1.0 - m), b / (1.0 - m)


def _onto_curve(f, point):
    """point moved onto f = 0 by at most four Newton steps along the
    gradient, or None where the gradient vanishes or no step falls below
    1e-9 of the point's size."""
    for _ in range(4):
        value = evaluate_float(f, {X1: point[0], X2: point[1]})
        g1, g2 = gradient(f, point)
        norm = g1 * g1 + g2 * g2
        if not norm:
            return None
        dx, dy = value * g1 / norm, value * g2 / norm
        point = (point[0] - dx, point[1] - dy)
        if abs(dx) + abs(dy) <= 1e-9 * (1.0 + abs(point[0]) + abs(point[1])):
            return point
    return None


def dual_panel_misfits(f):
    """(spurious, missed): how the dual panel of the curve f = 0, g traced
    as plot draws it by default (grid 256 over -3..3), departs from the
    images of the curve's points under point_image.  The real dual is the
    image of the curve's smooth real points, so the images lie on it
    whatever g and the trace do.

    The points come from tracing f at that grid over -3..3 and over
    -30..30, whose far points reach parts of the window that nearer ones
    do not (Fig. 9's cusp at (1, 0) is the image of points near
    x1 = +-25), each vertex moved onto f = 0 by Newton steps.  Along each traced source
    segment, midpoints are added (and moved onto the curve) until
    neighbouring images are at most a cell apart, up to 12 halvings,
    wherever the two images' bounding box meets the window, so each branch
    of images is a chain of neighbouring cells.  A traced segment is
    spurious when neither end's cell is within two cells of an image's
    cell; an image in the window is missed when its cell is more than two
    cells from every segment end's."""
    grid = 256
    vp = Viewport(-3.0, 3.0, -3.0, 3.0)
    width = (vp.xmax - vp.xmin) / grid
    height = (vp.ymax - vp.ymin) / grid
    images = []

    def image(point):
        if point is None:
            return None
        try:
            value = point_image(f, point)
        except ZeroDivisionError:
            return None
        images.append(value)
        return value

    def follow(a, image_a, b, image_b, level):
        if image_a is None or image_b is None or not level:
            return
        (ax, ay), (bx, by) = image_a, image_b
        if abs(ax - bx) <= width and abs(ay - by) <= height:
            return
        if (max(ax, bx) < vp.xmin or min(ax, bx) > vp.xmax
                or max(ay, by) < vp.ymin or min(ay, by) > vp.ymax):
            return
        middle = _onto_curve(f, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
        image_middle = image(middle)
        if middle is not None:
            follow(a, image_a, middle, image_middle, level - 1)
            follow(middle, image_middle, b, image_b, level - 1)

    for bound in (3.0, 30.0):
        vertices = {}
        for segment in trace_implicit(f, Viewport(-bound, bound, -bound, bound), grid):
            ends = []
            for vertex in segment:
                if vertex not in vertices:
                    point = _onto_curve(f, vertex)
                    vertices[vertex] = (point, image(point))
                ends.append(vertices[vertex])
            (a, image_a), (b, image_b) = ends
            if a is not None and b is not None:
                follow(a, image_a, b, image_b, 12)

    def cell(point):
        return (math.floor((point[0] - vp.xmin) / width),
                math.floor((point[1] - vp.ymin) / height))

    def near(cells):
        return {(i + di, j + dj) for i, j in cells for di in range(-2, 3) for dj in range(-2, 3)}

    segments = trace_implicit(dual_curve(ImplicitCurve(f)).g, vp, grid)
    image_cells = [cell(point) for point in images
                   if vp.xmin <= point[0] <= vp.xmax and vp.ymin <= point[1] <= vp.ymax]
    near_images = near(image_cells)
    spurious = sum(cell(a) not in near_images and cell(b) not in near_images
                   for a, b in segments)
    near_segments = near(cell(end) for segment in segments for end in segment)
    return spurious, sum(c not in near_segments for c in image_cells)


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

def cellwise_trace(p, vp, grid):
    """plot.trace_implicit as it was before crossings were shared between
    cells, kept as its reference for that sharing: the same columns, from
    plot._column_values on every grid column, and the same sign masks, but
    every marched cell interpolates each of its crossed edges itself, and
    a column's finiteness is checked through its sum.  The column values
    are checked on their own against grouped_column in tests/test_plot.py."""
    form = FloatForm(p)
    ax = form.axes[0]
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
