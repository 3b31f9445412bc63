"""Sylvester resultants of binary forms in (x1, x2) whose coefficients are
integer polynomials in the image coordinates (x, y), each held as a map
{(i, j): coefficient of x^i * y^j}.  dualize._partial_forms builds those
maps directly and resultant reads them as they are, so a Polynomial meets
the dual path only at its edges: the curve that goes in and the resultant
that comes out.  The subresultant PRS runs over an integral domain, so
rational coefficients are the caller's to clear: a form's resultant
changes only by a scalar when the form is scaled, and dualize.dual_curve
takes the curve's primitive part before the lift.

The resultant is the determinant of the classical Sylvester matrix: for
forms F of degree n and G of degree m, m shifted rows of F's coefficients
followed by n shifted rows of G's, each row running from the x1^deg
coefficient down to the x2^deg one.  The degrees are the formal ones, so a
vanishing x1^deg coefficient still counts.

The resultant is not expanded symbolically; it is evaluated and
interpolated.  Its degree in x is at most D_x = m*deg_x(F) + n*deg_x(G),
deg_x being the largest degree in x of a form's coefficients, and its
degree in y at most D_y, alike.  So its values on the grid of D_x + 1
consecutive integers along x times D_y + 1 along y, each run centred on
zero to keep the values small, determine it; a variable no coefficient
uses gets the one node 0.  Its total degree is at most D = m*T(F) +
n*T(G), T being the largest total degree of a form's coefficients, as each
term of the determinant is a product of m coefficients of F and n of G.  A
coefficient is evaluated through its primitive part, its values over their
positive gcd: a part that coefficients share is evaluated once, and each
takes the part's values times its integer factor.  The two partial forms
of a degree-d curve's cone (dualize._partial_forms) have 2d coefficients,
all multiples of the cone's d + 1, so the dual costs d + 1 evaluations per
node.  At each grid point the two forms have integer coefficients, and
their resultant is taken without any matrix by the subresultant polynomial
remainder sequence in O(nm) integer operations (W. S. Brown and J. F.
Traub, On Euclid's algorithm and the theory of subresultants, JACM 18,
1971).  The grid is taken one line along y at a time, its nodes grouped by
formal-degree rule up front, and one PRS loop steps each group in
lockstep.  The values are interpolated in integer arithmetic, first along
the contiguous lines along y that the PRS produced, each read in full, and
then along x.  The line along x of the y^j coefficients has degree at most
D - j: at most its first D - j + 1 values are read, and an all-zero line is
skipped.  The dual's resultant has the factor y^N, N = n(n - 1) for a
degree-n curve, so a dense quintic's reads 41 * 41 = 1681 values along y
and then, of the lines along x, only those of y^20..y^40, 21 + 20 + ... +
1 = 231 values: 1912 in all, against 3362 for both axes read in full.
Every division is exact by the theory; one that leaves a remainder raises
ArithmeticError.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import Iterator, NamedTuple, Sequence

from .polyring import X, Y, Coefficient, Polynomial, monomial

# a form coefficient: {(i, j): nonzero coefficient of x^i * y^j}
Terms = dict[tuple[int, int], Coefficient]


class _BinaryFormFields(NamedTuple):
    degree: int
    coeffs: tuple[Terms, ...]


class BinaryForm(_BinaryFormFields):
    """Homogeneous form in (x1, x2); coeffs[i] multiplies x1^i * x2^(degree-i)
    and maps each exponent pair (i, j) of x^i * y^j to its nonzero
    coefficient, an empty map being the zero coefficient.  A pair map names
    only x and y, so no coefficient can hold x1 or x2.  The lift builds the
    maps directly, so no Polynomial enters a form on the dual path."""

    __slots__ = ()

    def __new__(cls, degree: int, coeffs: tuple[Terms, ...]):
        if degree < 0:
            raise ValueError("binary form degree must be non-negative")
        if len(coeffs) != degree + 1:
            raise ValueError("binary form needs degree + 1 coefficients")
        if not all(map(_is_terms, coeffs)):
            raise ValueError("a form coefficient maps pairs (i, j) of non-negative "
                             "integers to nonzero coefficients of x^i * y^j")
        if not any(coeffs):
            raise ValueError("binary form must have a nonzero coefficient")
        return super().__new__(cls, degree, coeffs)


def _is_terms(coeff: object) -> bool:
    """coeff is a dict from pairs of non-negative ints to nonzero values."""
    return type(coeff) is dict and all(
        type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int
        and pair[0] >= 0 and pair[1] >= 0 and value for pair, value in coeff.items())


def resultant(f: BinaryForm, g: BinaryForm) -> Polynomial:
    """Determinant of the Sylvester matrix, as a Polynomial in (x, y): the
    dual path's first Polynomial since the curve.  It is identically zero
    exactly when the forms share a common nonconstant factor.  The forms'
    pair maps are read as they are, and every coefficient in them must be
    an int; a rational one raises ValueError.

    The grid values come one line along y at a time, and each line's
    resultants are taken together by the subresultant PRS in lockstep.
    They are interpolated along y and then along x, where each line is cut
    to the degree the total degree bound m*T(f) + n*T(g) leaves it (T: the
    largest total degree of a form's coefficients), and an all-zero line
    is skipped."""
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ValueError("Sylvester matrix needs forms of degree at least 1")
    coeffs = f.coeffs + g.coeffs
    if any(type(c) is not int for coeff in coeffs for c in coeff.values()):
        raise ValueError("resultant needs forms with integer coefficients")

    def degree_bound(wx: int, wy: int) -> int:
        # each Sylvester term is a product of m coefficients of f and n of g
        return sum(k * max((wx * a + wy * b for coeff in part for a, b in coeff), default=0)
                   for k, part in ((m, coeffs[:n + 1]), (n, coeffs[n + 1:])))

    xs, ys = (range(-(bound // 2), bound - bound // 2 + 1)
              for bound in (degree_bound(1, 0), degree_bound(0, 1)))

    # each distinct primitive part is evaluated once, and a coefficient's line
    # is its part's line times the coefficient's integer factor
    parts: dict[frozenset, int] = {}  # primitive part -> its index
    factors = []  # (part index, factor) per coefficient
    for coeff in coeffs:
        factor = gcd(*coeff.values()) or 1  # a zero coefficient: gcd 0, empty part
        part = frozenset((exps, c // factor) for exps, c in coeff.items())
        factors.append((parts.setdefault(part, len(parts)), factor))
    values = []
    for part_lines in zip(*(_grid_lines(dict(part), xs, ys) for part in parts)):
        line = [part_lines[i] if factor == 1 else [factor * v for v in part_lines[i]]
                for i, factor in factors]
        values += _line_resultants(line[:n + 1], line[n + 1:])
    _interpolate_grid(values, xs, ys, degree_bound(1, 1))
    return Polynomial({monomial((X, Y), divmod(k, len(ys))): value
                       for k, value in enumerate(values) if value})


def _line_resultants(f: Sequence[list[int]], g: Sequence[list[int]]) -> list[int]:
    """The resultant at every node of a grid line, where f[i][j] and g[i][j]
    are the x1^i coefficients of the two forms at node j.

    The nodes are grouped by formal-degree rule up front, keyed (swap, k):
    two zero leads give 0, Res(F, G) = (-1)^(nm) Res(G, F) puts a vanishing
    lead second, and each of its k vanishing leading coefficients gives a
    factor lc of the first form, as Res(F, G) = lc(F)^m * prod of G over the
    roots of F.  Each group's rows are cut from the line's columns, and it
    steps to its end in lockstep with one sign: the pseudo-remainder is
    divided by g*h^delta, delta = da - db, then g = lc(b) and
    h = g^delta / h^(delta-1), from g = h = 1.  Where a remainder vanishes
    the value is 0; the nodes where it drops more than a degree go on as a
    group of their own.  Constant b ends with the same h rule at delta = da."""
    n, m = len(f) - 1, len(g) - 1
    values = [0] * len(f[0])
    factors: dict[int, int] = {}  # node -> lc^k, where k > 0
    normal: list[int] = []
    groups = {(False, 0): normal}
    for j, (x, y) in enumerate(zip(f[-1], g[-1])):
        if x and y:
            normal.append(j)
        elif x or y:
            second = f if y else g
            k = next((k for k, c in enumerate(reversed(second)) if c[j]), None)
            if k:  # k >= 1, or None where the second form vanishes at the node
                groups.setdefault((bool(y), k), []).append(j)
                factors[j] = (x or y) ** k
    work = []
    for (swap, k), nodes in groups.items():
        if nodes:
            first, second = (g, f) if swap else (f, g)
            a, b = ([[c[j] for j in nodes] for c in rows] if len(nodes) < len(values)
                    else rows for rows in (first[::-1], second[::-1][k:]))
            # h = None stands for g = h = 1: a group's first step skips dividing by
            # g*h^delta, over a tenth of the kernel's time on the benchmark's lines
            work.append((nodes, a, b, None, (-1) ** (n * m) if swap else 1))
    while work:
        nodes, a, b, h, sign = work.pop()
        while len(b) > 1:
            da, db = len(a) - 1, len(b) - 1
            if da < db:  # the swap's sign (-1)^(da*db) cancels the step's
                a, b, da, db = b, a, db, da
            elif da * db % 2:
                sign = -sign
            delta = da - db
            r = a
            for _ in range(delta + 1):
                r = ([[l * x - q * y for l, x, q, y in zip(b[0], xs, r[0], ys)]
                      for xs, ys in zip(r[1:], b[1:])]
                     + [[l * x for l, x in zip(b[0], xs)] for xs in r[db + 1:]])
            if h is not None:  # g = lc(a): a's lead is the last step's lc(b)
                divisors = ([x * y for x, y in zip(a[0], h)] if delta == 1
                            else [x * y ** delta for x, y in zip(a[0], h)])
                r = [_exact_line(xs, divisors) for xs in r]
            a, b, h = b, r, _next_h(b[0], h, delta)
            if not all(b[0]):
                # where a remainder vanishes the value is 0, and the nodes where
                # it drops more than a degree go on as a group of their new pair
                drops: dict[int, list[int]] = {}
                for i in [i for i, x in enumerate(b[0]) if not x]:
                    top = next((t for t, xs in enumerate(b) if xs[i]), 0)
                    if top:
                        drops.setdefault(top, []).append(i)
                for top, keep in drops.items():
                    work.append(([nodes[i] for i in keep], [[c[i] for i in keep] for c in a],
                                 [[c[i] for i in keep] for c in b[top:]],
                                 [h[i] for i in keep], sign))
                keep = [i for i, x in enumerate(b[0]) if x]
                if not keep:
                    break
                nodes, h = ([c[i] for i in keep] for c in (nodes, h))
                a, b = ([[c[i] for i in keep] for c in rows] for rows in (a, b))
        else:
            for j, value in zip(nodes, _next_h(b[0], h, len(a) - 1)):
                values[j] = sign * value
    for j, factor in factors.items():
        values[j] *= factor
    return values


def _next_h(lead: list[int], h: list[int] | None, delta: int) -> list[int]:
    """h' = g^delta / h^(delta-1) at each node of a group, where g = lead and
    h = None stands for 1: a group's first step, the only one where delta
    can be 0, as every later remainder is of lower degree than its divisor."""
    if delta == 1:
        return lead
    if h is None:
        return [x ** delta for x in lead]
    return _exact_line([x ** delta for x in lead], [y ** (delta - 1) for y in h])


def _exact_line(values: list[int], divisors: list[int]) -> list[int]:
    """values[j] // divisors[j] for each j of a nonempty line, raising if any
    division leaves a remainder."""
    quotients, remainders = zip(*map(divmod, values, divisors))
    if any(remainders):
        value, divisor = next((x, d) for x, d, r in zip(values, divisors, remainders) if r)
        raise ArithmeticError(f"inexact division of {value} by {divisor}")
    return list(quotients)


def _grid_lines(terms: dict[tuple[int, int], int], xs: range,
                ys: range) -> Iterator[list[int]]:
    """Values at every node of the grid, one line along y per node of x, in
    the order of the x nodes.  They are generated as consumed, so no grid
    of entry values is ever stored."""
    size = max((b for _, b in terms), default=0) + 1
    for t in xs:
        dense = [0] * size  # the coefficients in y at x = t, ascending
        for (a, b), coeff in terms.items():
            dense[b] += coeff * t ** a
        dense.reverse()
        line = []
        for v in ys:
            value = 0
            for coeff in dense:
                value = value * v + coeff
            line.append(value)
        yield line


def _interpolate_grid(values: list[int], xs: range, ys: range, total: int) -> None:
    """In place: the values along each line of the grid become the
    coefficients of their interpolant, first along y and then along x, so
    that in the end the entry at grid index (i, j) is the coefficient of
    x^i * y^j.

    The lines along y are contiguous, and each is read in full.  The line
    along x of the y^j coefficients has degree at most total - j: it is
    taken from its first min(len(xs) - 1, total - j) + 1 values, and the
    rest become 0.  An all-zero line is skipped, and a nonzero one with
    j > total raises ArithmeticError."""
    width = len(ys)
    for start in range(0, len(values), width):
        points = values[start:start + width]
        if any(points):
            values[start:start + width] = _interpolate(points, ys.start)
    for j in range(width):
        points = values[j::width]
        if not any(points):
            continue
        if j > total:
            raise ArithmeticError(f"nonzero coefficients past the total degree bound {total}")
        cut = min(len(xs), total - j + 1)
        values[j::width] = _interpolate(points[:cut], xs.start) + [0] * (len(xs) - cut)


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
    return _exact_line(poly, [factorial(d)] * len(poly))
