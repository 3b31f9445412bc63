"""Exact certificates of a dual over GF(p), p = 2^61 - 1, for the tests.

image_certificate checks that the true dual divides a computed g, and
curve_class counts a curve's class (its number of tangents through a
generic point), so that deg g = class(f) and class(g) = deg f pin g down
to the true dual.  Both rest on the univariate arithmetic below: lists of
residues, ascending.  Nothing here comes from the library's resultant or
its interpolation."""

import random

from pardual.polyring import (
    X,
    X1,
    X2,
    Y,
    Polynomial,
    exponents,
    partial_derivative,
    total_degree,
    variables,
)

PRIME = 2 ** 61 - 1


def residue(c):
    """An int or Fraction coefficient mod the prime."""
    return c.numerator * pow(c.denominator, -1, PRIME) % PRIME


def _trim(a):
    """a without its zero leading coefficients: [] for the zero polynomial."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _monic(a):
    inverse = pow(a[-1], -1, PRIME)
    return [c * inverse % PRIME for c in a]


def _divide(a, m):
    """(quotient, remainder) of a by the monic m, the remainder as
    len(m) - 1 coefficients."""
    d = len(m) - 1
    a = list(a) + [0] * max(0, d - len(a))
    quotient = [0] * max(0, len(a) - d)
    for i in range(len(a) - 1, d - 1, -1):
        q = quotient[i - d] = a[i]
        if q:
            for k in range(d + 1):
                a[i - d + k] = (a[i - d + k] - q * m[k]) % PRIME
    return quotient, a[:d]


def _times(a, b, m):
    """a * b modulo the monic m."""
    product = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                product[i + j] += u * v
    return _divide(product, m)[1]


def _derivative(a):
    return [i * c % PRIME for i, c in enumerate(a)][1:]


def _gcd(a, b):
    """The monic gcd of trimmed a and b ([] when both are zero)."""
    while b:
        b = _monic(b)
        a, b = b, _trim(_divide(a, b)[1])
    return _monic(a) if a else a


def _resultant(a, b):
    """Res(a, b) of nonzero trimmed a and b, by Euclid: Res(a, b) =
    (-1)^(deg a * deg b) lc(b)^(deg a - deg r) Res(b, r) for r = a mod b,
    and Res(a, c) = c^deg a for a constant c."""
    result = 1
    while len(b) > 1:
        r = _trim(_divide(a, _monic(b))[1])
        if not r:
            return 0
        m, n = len(a) - 1, len(b) - 1
        result = result * (-1) ** (m * n) * pow(b[-1], m - len(r) + 1, PRIME) % PRIME
        a, b = b, r
    return result * pow(b[0], len(a) - 1, PRIME) % PRIME


def _interpolate(nodes, values):
    """Ascending coefficients of the polynomial of degree < len(nodes) that
    takes values[i] at nodes[i], by Newton's divided differences."""
    diffs = list(values)
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            step = pow(nodes[i] - nodes[i - k], -1, PRIME)
            diffs[i] = (diffs[i] - diffs[i - 1]) * step % PRIME
    poly = [diffs[-1]]
    for node, diff in zip(reversed(nodes[:-1]), reversed(diffs[:-1])):
        poly = ([(diff - node * poly[0]) % PRIME]
                + [(poly[k - 1] - node * poly[k]) % PRIME for k in range(1, len(poly))]
                + [poly[-1]])
    return poly


def _horner(a, t):
    value = 0
    for c in reversed(a):
        value = (value * t + c) % PRIME
    return value


def curve_class(p, axes=(X1, X2), seed=2004):
    """The class of the curve p = 0 in the variable pair axes: the number
    of tangent lines through a generic point Q that touch it at one smooth
    point, or None when p has a repeated factor.

    Seeded points Q, A and B of the projective plane over GF(p) give the
    pencil of lines through Q and A + t*B.  On the line of t, the curve's
    homogenization F restricts to a_t(s) = F(Q + s*(A + t*B)), whose
    coefficient of s^k has degree at most k in t; those coefficients are
    interpolated from a (d + 1) x (d + 1) grid of values, d = deg p.  The
    discriminant D(t) of a_t has degree at most d(d - 1): it is taken as
    Res(a_t, a_t') / lc(a_t) at d(d - 1) + 1 values of t where lc(a_t) is
    nonzero, and interpolated.  A line tangent at one smooth point is a
    simple root of D, and a line through a singular point a multiple one
    (for generic Q, no line of the pencil is a bitangent or a flex
    tangent), so with G = gcd(D, D') and M = D / G, the class is
    deg M - deg gcd(M, G).  D is identically 0 exactly when p has a
    repeated factor."""
    d = total_degree(p)
    terms = [(residue(c), *exponents(mono, axes)) for mono, c in p.terms.items()]
    rng = random.Random(seed)
    q, a, b = ([rng.randrange(PRIME) for _ in range(3)] for _ in range(3))

    def at(point):
        u, v, w = point
        us, vs, ws = ([pow(c, e, PRIME) for e in range(d + 1)] for c in (u, v, w))
        return sum(c * us[i] * vs[j] * ws[d - i - j] for c, i, j in terms) % PRIME

    grid = range(d + 1)
    rows = [_interpolate(grid, [at([(qc + s * (ac + t * bc)) % PRIME
                                    for qc, ac, bc in zip(q, a, b)]) for s in grid])
            for t in grid]
    coefficients = [_interpolate(grid, column) for column in zip(*rows)]
    nodes, values = [], []
    t = 0
    while len(nodes) < d * (d - 1) + 1:
        line = [_horner(c, t) for c in coefficients]
        if line[-1]:
            nodes.append(t)
            values.append(_resultant(line, _derivative(line)) * pow(line[-1], -1, PRIME)
                          % PRIME)
        t += 1
    discriminant = _trim(_interpolate(nodes, values))
    if not discriminant:
        return None
    g = _gcd(discriminant, _trim(_derivative(discriminant)))
    m = _trim(_divide(discriminant, g)[0])
    return len(m) - len(_gcd(m, g))


def _restrict(p, fixed, t, free):
    """p at fixed = t, mod the prime: its coefficients in free, ascending,
    one per exponent up to p's degree in free (the last may be zero)."""
    coeffs = [0] * (max((exponents(mono, (free,))[0] for mono in p.terms), default=0) + 1)
    for mono, c in p.terms.items():
        a, b = exponents(mono, (fixed, free))
        coeffs[b] = (coeffs[b] + residue(c) * pow(t, a, PRIME)) % PRIME
    return coeffs


def image_certificate(f, g, lines=3, seed=2004):
    """Whether f divides N = sum c_ab * A^a * B^b * C^(D-a-b) over the terms
    c_ab * x^a * y^b of g, D = deg g, where A = f2, B = x1*f1 + x2*f2 and
    C = f1 + f2 make f's image map (x, y) = (A/C, B/C) at spacing 1.  For
    irreducible f that holds exactly when the true dual divides g, and it
    holds for any g if N is identically zero.

    It is tested on seeded lines x1 = t (x2 = t if f has no x2), t in
    GF(p), skipping a t where f's leading coefficient vanishes: N must
    reduce to 0 modulo the monic f(t, x2).  A g that fails passes a line
    only with probability about deg N / p."""
    f1, f2 = partial_derivative(f, X1), partial_derivative(f, X2)
    images = (f2, Polynomial.variable(X1) * f1 + Polynomial.variable(X2) * f2, f1 + f2)
    fixed, free = (X1, X2) if X2 in variables(f) else (X2, X1)
    degree = total_degree(g)
    terms = [(residue(c), *exponents(mono, (X, Y))) for mono, c in g.terms.items()]
    rng = random.Random(seed)
    checked = 0
    while checked < lines:
        t = rng.randrange(PRIME)
        m = _restrict(f, fixed, t, free)
        if not m[-1]:
            continue
        m = _monic(m)
        one = _divide([1], m)[1]
        powers = []  # powers[k][e] = (A, B or C)^e modulo m, e = 0..D
        for image in images:
            base = _divide(_restrict(image, fixed, t, free), m)[1]
            row = [one]
            for _ in range(degree):
                row.append(_times(row[-1], base, m))
            powers.append(row)
        total = [0] * len(one)
        for c, a, b in terms:
            term = _times(_times(powers[0][a], powers[1][b], m), powers[2][degree - a - b], m)
            total = [(u + c * v) % PRIME for u, v in zip(total, term)]
        if any(total):
            return False
        checked += 1
    return True
