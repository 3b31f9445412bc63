"""Sylvester resultants of binary forms in (x1, x2) whose coefficients are
integer polynomials in the gradient directions (eta, xi, psi) or in the
image coordinates (x, y).  The subresultant PRS runs over an integral
domain, so rational coefficients are the caller's to clear: a form's
resultant changes only by a scalar when the form is scaled, and
dualize.dual_curve takes the curve's primitive part before the lift.

The resultant is the determinant of the classical Sylvester matrix: for
forms F of degree n and G of degree m, m shifted rows of F's coefficients
followed by n shifted rows of G's, each row running from the x1^deg
coefficient down to the x2^deg one.  The degrees are the formal ones, so a
vanishing x1^deg coefficient still counts.

The resultant is not expanded symbolically; it is evaluated and
interpolated.  Its degree in each variable v the coefficients use is at
most D_v = m*maxdeg_v(F) + n*maxdeg_v(G), so its values on a tensor grid
of D_v + 1 consecutive integers per variable, centred on zero to keep them
small, determine it.  Its total degree is at most D = m*T(F) + n*T(G), T
being the largest total degree of a form's coefficients, as each term of
the determinant is a product of m coefficients of F and n of G.  A
coefficient is evaluated through its primitive part, its values over their
positive gcd: a part that coefficients share is evaluated once, and each
takes the part's values times its integer factor.  The two partial forms
of a degree-d curve's cone (dualize._partial_forms) have 2d coefficients,
all multiples of the cone's d + 1, so the dual costs d + 1 evaluations per
node.  At each grid point the two forms have integer coefficients, and
their resultant is taken without any matrix by the subresultant polynomial
remainder sequence in O(nm) integer operations (W. S. Brown and J. F.
Traub, On Euclid's algorithm and the theory of subresultants, JACM 18,
1971).  The grid is taken one line of the last axis at a time, its nodes
grouped by formal-degree rule up front, and one PRS loop steps each group
in lockstep.  The values are interpolated one axis at a time in integer
arithmetic, the last axis first, along the contiguous lines the PRS
produced, each read in full.  On every later line the exponents already
fixed sum to s, so its interpolant has degree at most D - s: at most its
first D - s + 1 values are read, and an all-zero line is skipped.  The
dual's resultant in (x, y) has the factor y^N, N = n(n - 1) for a degree-n
curve, so a dense quintic's reads 41 * 41 = 1681 values along y and then,
of the x lines, only those of y^20..y^40, 21 + 20 + ... + 1 = 231 values:
1912 in all, against 3362 for both axes read in full.  Every division is
exact by the theory; one that leaves a remainder raises ArithmeticError.
"""

from __future__ import annotations

from itertools import product
from math import factorial, gcd
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
    the forms share a common nonconstant factor.  Every coefficient of
    both forms must be an integer polynomial; a rational one raises
    ValueError.

    The grid values come one line of the last axis at a time (one node
    when no variable is used), and each line's resultants are taken
    together by the subresultant PRS in lockstep.  They are interpolated
    the last axis first; every later line is cut to the degree the total
    degree bound m*T(f) + n*T(g) leaves it (T: the largest total degree of
    a form's coefficients), and an all-zero line is skipped."""
    n, m = f.degree, g.degree
    if n < 1 or m < 1:
        raise ValueError("Sylvester matrix needs forms of degree at least 1")
    if any(type(c) is not int for p in f.coeffs + g.coeffs for c in p.terms.values()):
        raise ValueError("resultant needs forms with integer coefficients")
    used = sorted(frozenset().union(*map(variables, f.coeffs + g.coeffs)))
    coeffs = [{exponents(mono, used): c for mono, c in p.terms.items()}
              for p in f.coeffs + g.coeffs]

    def degree_bound(over: Sequence[int]) -> int:
        # each Sylvester term is a product of m coefficients of f and n of g
        return m * _max_degree(coeffs[:n + 1], over) + n * _max_degree(coeffs[n + 1:], over)

    bounds = [degree_bound([axis]) for axis in range(len(used))]
    total = degree_bound(range(len(used)))
    axes = [range(-(bound // 2), bound - bound // 2 + 1) for bound in bounds]

    # each distinct primitive part is evaluated once, and a coefficient's line
    # is its part's line times the coefficient's integer factor
    parts: dict[frozenset, int] = {}  # primitive part -> its index
    factors = []  # (part index, factor) per coefficient
    for coeff in coeffs:
        factor = gcd(*coeff.values()) or 1  # a zero coefficient: gcd 0, empty part
        part = frozenset((exps, c // factor) for exps, c in coeff.items())
        factors.append((parts.setdefault(part, len(parts)), factor))
    values = []
    for part_lines in zip(*(_grid_lines(dict(part), axes) for part in parts)):
        line = [part_lines[i] if factor == 1 else [factor * v for v in part_lines[i]]
                for i, factor in factors]
        values += _line_resultants(line[:n + 1], line[n + 1:])
    _interpolate_grid(values, axes, total)
    return Polynomial({
        monomial(used, exps): value
        for exps, value in zip(product(*(range(len(axis)) for axis in axes)), values)
        if value
    })


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


def _max_degree(coeffs: list[dict[tuple[int, ...], int]], over: Sequence[int]) -> int:
    """The largest degree of a coefficient in the variables of the axes over."""
    return max((sum(exps[axis] for axis in over) for coeff in coeffs for exps in coeff),
               default=0)


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


def _interpolate_grid(values: list[int], axes: list[range], total: int) -> None:
    """In place, one axis at a time from the last: the values along each
    line of the grid become the coefficients of their interpolant, so that
    in the end the entry at grid index (i, j, ...) is the coefficient of
    v1^i * v2^j * ...

    The last axis runs along contiguous lines, each read in full.  Every
    later line has the exponents of the axes after it fixed, summing to s,
    so its interpolant has degree at most total - s: it is taken from its
    first min(len - 1, total - s) + 1 values, and the rest become 0.  An
    all-zero line is skipped, and a nonzero one with s > total raises
    ArithmeticError."""
    stride = 1
    fixed = [0]  # the exponent sum of the later axes at each offset in a block
    for axis in reversed(axes):
        size = len(axis)
        block = stride * size
        for base in range(0, len(values), block):
            for offset, s in enumerate(fixed):
                line = slice(base + offset, base + block, stride)
                points = values[line]
                if not any(points):
                    continue
                if s > total:
                    raise ArithmeticError(
                        f"nonzero coefficients past the total degree bound {total}")
                cut = size if stride == 1 else min(size, total - s + 1)
                values[line] = _interpolate(points[:cut], axis.start) + [0] * (size - cut)
        fixed = [e + s for e in range(size) for s in fixed]
        stride = block


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
