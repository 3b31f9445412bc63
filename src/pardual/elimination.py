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
subresultants, JACM 18, 1971).  The grid is taken one line of the last
axis at a time, and one PRS loop steps a line's nodes in lockstep, in
groups of one degree pair.  The values are interpolated one axis at a
time in integer arithmetic.  Every division is exact by the theory; one
that leaves a remainder raises ArithmeticError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial, lcm
from typing import Iterator, NamedTuple, Sequence

from .polyring import (
    ETA,
    PSI,
    VAR_NAMES,
    X,
    XI,
    Y,
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


def resultant(f: BinaryForm, g: BinaryForm) -> Polynomial:
    """Determinant of the Sylvester matrix; identically zero exactly when
    the forms share a common nonconstant factor.

    The grid values come one line of the last axis at a time (one node
    when no variable is used), and each line's resultants are taken
    together by the subresultant PRS in lockstep."""
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

    lines = zip(*(_grid_lines(coeff, axes) for coeff in coeffs))
    values = [value for line in lines for value in _line_resultants(line[:n + 1], line[n + 1:])]
    _interpolate_grid(values, axes)
    divisor = f_scale ** m * g_scale ** n
    return Polynomial({
        monomial(used, exps): Fraction(value, divisor)
        for exps, value in zip(product(*(range(len(axis)) for axis in axes)), values)
        if value
    })


def _line_resultants(f: Sequence[list[int]], g: Sequence[list[int]]) -> list[int]:
    """The resultant at every node of a grid line, where f[i][j] and g[i][j]
    are the x1^i coefficients of the two forms at node j.

    The nodes with both formal leading coefficients nonzero form one group.
    Any other node takes the formal-degree rule first, its factor applied at
    the end: two zero leads give 0, Res(F, G) = (-1)^(nm) Res(G, F), and
    each of k vanishing leading coefficients of G gives a factor lc(F), as
    Res(F, G) = lc(F)^m * prod of G over the roots of F; then the nodes of
    each degree pair (da, db) of a and b form a group.  Each group steps to
    its end in lockstep with one sign: the pseudo-remainder is divided by
    g*h^delta, delta = da - db, then g = lc(b) and h = g^delta / h^(delta-1),
    from g = h = 1.  Where a remainder vanishes the value is 0; the nodes
    where it drops more than a degree go on as a group of their own.
    Constant b gives b^da / h^(da-1)."""
    n, m = len(f) - 1, len(g) - 1
    values = [0] * len(f[0])
    factors: dict[int, int] = {}  # node -> its formal-degree factor
    normal = [j for j, (x, y) in enumerate(zip(f[-1], g[-1])) if x and y]
    a, b = ([[c[j] for j in normal] for c in reversed(form)] if len(normal) < len(values)
            else form[::-1] for form in (f, g))
    # g = h = None stands for 1: the normal group's first step skips dividing
    # by g*h^delta, over a tenth of the kernel's time on the benchmark's lines
    work = [(normal, a, b, None, None, 1)] if normal else []
    starts: dict[tuple[int, int], list[tuple[int, list[int], list[int]]]] = {}
    for j in [j for j, (x, y) in enumerate(zip(f[-1], g[-1])) if (x or y) and not (x and y)]:
        a, b, factors[j] = [c[j] for c in f], [c[j] for c in g], 1
        if not a[-1]:
            a, b, factors[j] = b, a, (-1) ** (n * m)
        while b and not b[-1]:
            b.pop()
            factors[j] *= a[-1]
        if b:  # else a form vanishes at the node
            starts.setdefault((len(a), len(b)), []).append((j, a[::-1], b[::-1]))
    for nodes, a, b in (zip(*start) for start in starts.values()):
        # g = h = 1 as lists, as b may already be constant
        ones = [1] * len(nodes)
        work.append((list(nodes), [list(c) for c in zip(*a)], [list(c) for c in zip(*b)],
                     ones, ones, 1))
    while work:
        nodes, a, b, lead, h, sign = work.pop()
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
            if lead is not None:
                divisors = ([x * y for x, y in zip(lead, h)] if delta == 1
                            else [x * y ** delta for x, y in zip(lead, h)])
                r = [_exact_line(xs, divisors) for xs in r]
            if delta == 1:
                h = b[0]
            elif lead is None:
                h = [x ** delta for x in b[0]]
            elif delta:  # at delta = 0, h = g^0 / h^-1 stays
                h = _exact_line([x ** delta for x in b[0]], [y ** (delta - 1) for y in h])
            a, b, lead = b, r, b[0]
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
                                 [lead[i] for i in keep], [h[i] for i in keep], sign))
                keep = [i for i, x in enumerate(b[0]) if x]
                if not keep:
                    break
                nodes, lead, h = ([c[i] for i in keep] for c in (nodes, lead, h))
                a, b = ([[c[i] for i in keep] for c in rows] for rows in (a, b))
        else:
            da = len(a) - 1
            last = b[0] if da == 1 else _exact_line([x ** da for x in b[0]],
                                                    [y ** (da - 1) for y in h])
            for j, value in zip(nodes, last):
                values[j] = sign * value
    for j, factor in factors.items():
        values[j] *= factor
    return values


def _exact_line(values: list[int], divisors: list[int]) -> list[int]:
    """values[j] // divisors[j] for each j of a nonempty line, raising if any
    division leaves a remainder."""
    quotients, remainders = zip(*map(divmod, values, divisors))
    if any(remainders):
        value, divisor = next((x, d) for x, d, r in zip(values, divisors, remainders) if r)
        raise ArithmeticError(f"inexact division of {value} by {divisor}")
    return list(quotients)


def _max_degree(coeffs: list[dict[tuple[int, ...], int]], axis: int) -> int:
    return max((exps[axis] for coeff in coeffs for exps in coeff), default=0)


def _denominator(form: BinaryForm) -> int:
    return lcm(*(c.denominator for p in form.coeffs for c in p.terms.values()))


def _grid_lines(terms: dict[tuple[int, ...], int], axes: list[range]) -> Iterator[list[int]]:
    """Values at every point of the tensor grid, one line of the last axis
    at a time (the order of itertools.product), fixing one variable at a
    time.  They are generated as consumed, so no grid of entry values is
    ever stored."""
    if not axes:
        yield [terms.get((), 0)]
        return
    if len(axes) == 1:
        dense = [0] * (max((e for e, in terms), default=0) + 1)
        for (e,), coeff in terms.items():
            dense[e] = coeff
        dense.reverse()
        line = []
        for t in axes[0]:
            value = 0
            for coeff in dense:
                value = value * t + coeff
            line.append(value)
        yield line
        return
    for t in axes[0]:
        reduced: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            rest = exps[1:]
            reduced[rest] = reduced.get(rest, 0) + coeff * t ** exps[0]
        yield from _grid_lines(reduced, axes[1:])


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
    return _exact_line(poly, [factorial(d)] * len(poly))
