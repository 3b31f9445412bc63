import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    as_binary_form,
    binary_form,
    coefficient_polynomial,
    determinant,
    form_polynomial,
    polynomials,
    sylvester_matrix,
)
from pardual import elimination
from pardual.dualize import ImplicitCurve, _partial_forms, dual_curve
from pardual.elimination import (
    BinaryForm,
    _exact_line,
    _interpolate,
    _interpolate_grid,
    _line_resultants,
    resultant,
)
from pardual.polyparse import parse
from pardual.polyring import (
    ONE_MONOMIAL,
    X,
    X1,
    X2,
    Y,
    Polynomial,
    monomial,
    partial_derivative,
    total_degree,
)


def constant_form(*coeffs):
    """Binary form with integer coefficients, ascending x1-power."""
    return BinaryForm(len(coeffs) - 1, tuple({(0, 0): c} if c else {} for c in coeffs))


def form_product(roots):
    """Product of linear forms (b*x1 - a*x2) with projective roots (a : b)."""
    poly = Polynomial.constant(1)
    for a, b in roots:
        poly = poly * (b * Polynomial.variable(X1) - a * Polynomial.variable(X2))
    return as_binary_form(poly)


def rescaled_cone(f):
    """The lift's cone of f in image coordinates, rebuilt from its two
    partial forms by Euler's rule: n * L = x1 * dL/dx1 + x2 * dL/dx2.

    The references below are the cone's forms in the paper's (eta, xi, psi)
    under the image map eta -> 1-x, xi -> x, psi -> -y, written out as such.
    They are homogeneous in (eta, xi, psi), and the map is injective on
    homogeneous polynomials, so each identity is the one in (eta, xi, psi)."""
    d1, d2 = map(form_polynomial, _partial_forms(f))
    return Fraction(1, total_degree(f)) * (Polynomial.variable(X1) * d1
                                           + Polynomial.variable(X2) * d2)


class TestAsBinaryForm:
    def test_circle_step_two(self):
        g = rescaled_cone(parse("x1^2 + x2^2 - 1"))
        form = as_binary_form(g)
        assert form.degree == 2
        assert coefficient_polynomial(form.coeffs[0]) == parse("(-y)^2 - x^2")
        assert coefficient_polynomial(form.coeffs[1]) == parse("-2*(1-x)*x")
        assert coefficient_polynomial(form.coeffs[2]) == parse("(-y)^2 - (1-x)^2")

    def test_cubic_step_two(self):
        g = rescaled_cone(parse("x1^3 - x1^2 - x2^2 + x2 - 1"))
        form = as_binary_form(g)
        assert form.degree == 3
        coeffs = [coefficient_polynomial(c) for c in form.coeffs]
        assert coeffs[0] == parse("(-y)^2*x + (-y)*x^2 + x^3")
        assert coeffs[1] == parse("(1-x)*(-y)^2 + 2*(1-x)*(-y)*x + 3*(1-x)*x^2")
        assert coeffs[2] == parse("(1-x)^2*(-y) + 3*(1-x)^2*x + (-y)^2*x")
        assert coeffs[3] == parse("(1-x)^3 + (1-x)*(-y)^2 + (-y)^3")

    def test_cross_term(self):
        form = as_binary_form(parse("x1*x2"))
        assert form.degree == 2
        assert [not c for c in form.coeffs] == [True, False, True]
        assert form.coeffs[1] == {(0, 0): 1}

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError):
            as_binary_form(parse("x1^2 + x2"))

    def test_coefficient_not_a_pair_map_rejected(self):
        # a coefficient maps pairs (i, j) of non-negative ints to the nonzero
        # coefficient of x^i * y^j; a polynomial is converted only at the edge
        BinaryForm(1, ({(1, 0): 1}, {(0, 1): 1}))
        for coeff in (parse("x"), {(1,): 1}, {(1, 0, 0): 1}, {(-1, 0): 1}, {(1.0, 0): 1},
                      {(True, 0): 1}, {"x": 1}, {(1, 0): 0}, [((1, 0), 1)]):
            with pytest.raises(ValueError, match="maps pairs"):
                BinaryForm(1, (coeff, {(0, 0): 1}))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            as_binary_form(Polynomial())


class TestSylvesterMatrix:
    def test_linear_forms_identity(self):
        # F = x1, G = x2 lay out as the identity matrix
        m = sylvester_matrix(as_binary_form(parse("x1")), as_binary_form(parse("x2")))
        assert len(m) == 2
        assert m[0][0] == 1 and m[0][1] == 0
        assert m[1][0] == 0 and m[1][1] == 1

    def test_conic_layout(self):
        f = binary_form(1, (parse("2*x"), parse("2*(1-x)")))
        g = binary_form(1, (parse("2*(-y)"), parse("2*x")))
        m = sylvester_matrix(f, g)
        assert m == ((parse("2*(1-x)"), parse("2*x")),
                     (parse("2*x"), parse("2*(-y)")))

    def test_cubic_row_pattern(self):
        # degree-2 forms: two shifted rows each, descending powers, zero corners
        c1, c2, c3, c4 = parse("1-x"), parse("x"), parse("-y"), parse("(1-x)^2")
        f = binary_form(2, (c3, 2 * c2, 3 * c1))
        g = binary_form(2, (3 * c4, 2 * c3, c2))
        m = sylvester_matrix(f, g)
        zero = Polynomial()
        assert m == (
            (3 * c1, 2 * c2, c3, zero),
            (zero, 3 * c1, 2 * c2, c3),
            (c2, 2 * c3, 3 * c4, zero),
            (zero, c2, 2 * c3, 3 * c4),
        )

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            sylvester_matrix(binary_form(0, (parse("1"),)), as_binary_form(parse("x1")))


def leibniz(rows):
    """Signed sum over all permutations: the reference determinant."""
    size = len(rows)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = -1 if inversions % 2 else 1
        for r, c in enumerate(perm):
            term = term * rows[r][c]
        total = total + term
    return total


class TestDeterminant:
    def test_two_by_two_symbolic(self):
        # the Sylvester matrix ((2*eta, 2*xi), (2*xi, 2*psi)), by interpolation
        f = binary_form(1, (parse("2*x"), parse("2*(1-x)")))
        g = binary_form(1, (parse("2*(-y)"), parse("2*x")))
        assert resultant(f, g) == parse("4*(1-x)*(-y) - 4*x^2")

    def test_identity_four(self):
        rows = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        assert determinant(rows) == 1

    def test_circle_resultant_golden(self):
        g = rescaled_cone(parse("x1^2 + x2^2 - 1"))
        c0, c1, c2 = map(coefficient_polynomial, as_binary_form(g).coeffs)
        r = resultant(binary_form(1, (c1, 2 * c2)), binary_form(1, (2 * c0, c1)))
        # conic resultant factors as 4*psi^2 * (psi^2 - eta^2 - xi^2)
        assert r == parse("4*y^2") * parse("y^2 - (1-x)^2 - x^2")

    def test_singular_matrix_zero(self):
        row = (3, -2, 5, 1)
        rows = (row, row, (1, 0, 0, 0), (0, 1, 0, 0))
        assert determinant(rows) == 0

    @settings(max_examples=60)
    @given(st.integers(1, 6), st.data())
    def test_bareiss_matches_leibniz(self, size, data):
        # zeros are frequent, so pivoting and row swaps are exercised
        entry = st.one_of(st.just(0), st.integers(-50, 50))
        rows = tuple(tuple(data.draw(entry) for _ in range(size)) for _ in range(size))
        assert determinant(rows) == leibniz(rows)


def integer_rows(f, g):
    """The Sylvester matrix of forms with constant coefficients, as integers."""
    return [[int(p.terms.get(ONE_MONOMIAL, 0)) for p in row] for row in sylvester_matrix(f, g)]


def convolve(p, q):
    """Ascending coefficients of the product of two binary forms."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def add(p, q):
    """Ascending coefficients of the sum of two binary forms."""
    longer, shorter = (p, q) if len(p) >= len(q) else (q, p)
    return [x + y for x, y in zip(longer, shorter + [0] * (len(longer) - len(shorter)))]


NODE_KINDS = ("random", "f lead zero", "g lead zero", "both leads zero",
              "first remainder cancels", "later remainder drops two degrees",
              "two later remainders each drop two degrees", "shared root",
              "every node has lc(F) = 0")


@st.composite
def line_node(draw, n, m, kind):
    """Ascending integer coefficients (f, g) of degrees n and m at one node,
    random or built to leave the lockstep of the normal nodes."""
    coeff = st.integers(-9, 9)
    nonzero = coeff.filter(bool)

    def poly(degree):
        return draw(st.lists(coeff, min_size=degree, max_size=degree)) + [draw(nonzero)]

    if kind == "shared root":
        # both forms have the factor u*x2 + v*x1, so the resultant is 0
        root = [draw(coeff), draw(nonzero)]  # [u, v]
        return convolve(root, poly(n - 1)), convolve(root, poly(m - 1))
    f, g = poly(n), poly(m)
    low = g if n >= m else f
    delta = abs(n - m)
    if kind == "first remainder cancels":
        # high = c * x1^delta * low + rest with rest of x1-degree below
        # deg(low) - 1: the first pseudo-remainder is lc(low)^(delta + 1) * rest
        rest = draw(st.lists(coeff, min_size=len(low) - 2, max_size=len(low) - 2))
        scale = draw(nonzero)
        high = [0] * delta + [scale * x for x in low]
        high[:len(rest)] = [x + y for x, y in zip(high, rest)]
        f, g = (high, low) if n >= m else (low, high)
    if kind == "two later remainders each drop two degrees" and len(low) < 6:
        kind = "later remainder drops two degrees"
    if kind == "two later remainders each drop two degrees":
        # low = q * r2 + r3 and high = q2 * low + r2, with r2 two degrees below
        # low, q quadratic and r3 two degrees below r2: the first remainder, a
        # multiple of r2, leaves the normal group, and the next one, a
        # multiple of r3, leaves the group it went on in
        r2 = poly(len(low) - 3)
        low = add(convolve(poly(2), r2), poly(len(low) - 5))
        high = add(convolve(poly(delta), low), r2)
        f, g = (high, low) if n >= m else (low, high)
    if kind == "later remainder drops two degrees":
        # low = q * r1 + rest and high = q2 * low + r1, with r1 one degree
        # below low, q linear, q2 of degree delta and rest of x1-degree below
        # deg(low) - 2: the first remainder is a multiple of r1 and the second
        # one of rest, which drops at least two degrees below r1 (and is 0
        # when deg(low) = 2)
        r1 = poly(len(low) - 2)
        rest = draw(st.lists(coeff, min_size=max(len(low) - 3, 0), max_size=max(len(low) - 3, 0)))
        low = add(convolve(poly(1), r1), rest)
        high = add(convolve(poly(delta), low), r1)
        f, g = (high, low) if n >= m else (low, high)
    if kind in ("f lead zero", "both leads zero", "every node has lc(F) = 0"):
        f[n] = 0
    if kind in ("g lead zero", "both leads zero"):
        g[m] = 0
    return f, g


class TestNodeKernel:
    """Forms with constant coefficients take a single node, so resultant is
    the subresultant PRS and its formal-degree rule alone."""

    @settings(max_examples=150)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_prs_matches_sylvester_determinant(self, n, m, data):
        # zeros are frequent: leading ones put the formal degree above the
        # actual one, on one side or both; trailing ones give a root x1 = 0
        entry = st.one_of(st.just(0), st.integers(-50, 50))
        fc = data.draw(st.lists(entry, min_size=n + 1, max_size=n + 1).filter(any))
        gc = data.draw(st.lists(entry, min_size=m + 1, max_size=m + 1).filter(any))
        f, g = constant_form(*fc), constant_form(*gc)
        rows = integer_rows(f, g)
        expected = determinant(rows)
        if n + m <= 4:
            assert expected == leibniz(rows)
        assert resultant(f, g) == expected

    @pytest.mark.parametrize("fc, gc", [
        ((1, 2, 0), (3, 1)),        # lc(F) = 0, odd n*m: the swap changes the sign
        ((1, 2, 0), (3, 1, 1)),     # lc(F) = 0, even n*m
        ((1, 2), (3, 1, 0, 0)),     # two leading zeros of G
        ((1, 0), (5, 0)),           # both leading coefficients zero
        ((0, 0, 4), (0, 3)),        # trailing zeros: a shared root x1 = 0
        ((2, 0, 0), (0, 0, 0, 5)),  # actual degrees 0 and 3
        ((7, 0, 0), (0, 0, 0, 0, 3)),
    ])
    def test_formal_degree_rule(self, fc, gc):
        f, g = constant_form(*fc), constant_form(*gc)
        assert resultant(f, g) == leibniz(integer_rows(f, g))

    @settings(max_examples=60)
    @given(st.integers(1, 5), st.data())
    def test_line_kernel_matches_node_kernel(self, n, data):
        # equal degrees are drawn as often as unequal ones; each node is
        # random or of a kind that leaves the normal group, unless the whole
        # line has lc(F) = 0 (as every node of the x = 0 line of a dual has)
        m = data.draw(st.one_of(st.just(n), st.integers(1, 5)))
        kind = data.draw(st.sampled_from(NODE_KINDS))
        kinds = st.just(kind) if kind == NODE_KINDS[-1] else st.sampled_from(NODE_KINDS[:-1])
        nodes = data.draw(st.lists(kinds.flatmap(lambda k: line_node(n, m, k)),
                                   min_size=1, max_size=41))
        f = [list(column) for column in zip(*(node[0] for node in nodes))]
        g = [list(column) for column in zip(*(node[1] for node in nodes))]
        # a form that vanishes at a node gives zero Sylvester rows there
        assert _line_resultants(f, g) == [
            determinant(integer_rows(constant_form(*fc), constant_form(*gc)))
            if any(fc) and any(gc) else 0 for fc, gc in nodes]

    def test_line_kernel_split_group_drops_again(self):
        # the middle node's sequence has degrees 6, 5, 3, 1: it leaves the
        # normal group at its first remainder and its own group at the next
        r2, r3 = [1, 2, 0, 1], [3, 1]
        low = add(convolve([1, 0, 1], r2), r3)
        high = add(convolve([1, 1], low), r2)
        rng = random.Random(19)
        nodes = [([rng.randint(-9, 9) for _ in range(6)] + [rng.choice([-2, 1, 3])],
                  [rng.randint(-9, 9) for _ in range(5)] + [rng.choice([-3, 1, 2])])
                 for _ in range(6)]
        nodes.insert(3, (high, low))
        f = [list(column) for column in zip(*(node[0] for node in nodes))]
        g = [list(column) for column in zip(*(node[1] for node in nodes))]
        assert _line_resultants(f, g) == [
            determinant(integer_rows(constant_form(*fc), constant_form(*gc))) for fc, gc in nodes]

    def test_line_kernel_every_start_rule(self):
        # n*m = 15 is odd, so a swapped group's sign shows; every lead of a
        # form with vanishing leading coefficients is at least 2 in absolute
        # value, so its factor lc^k shows; the normal nodes are cut from the
        # line, as every group's are
        nodes = [
            ([1, -2, 3, 2], [4, 0, -1, 2, 5, -3]),   # normal
            ([-5, 1, 0, 7], [2, 3, -4, 1, 0, 1]),    # normal
            ([2, 1, -1, 3], [1, -2, 3, 1, 4, 0]),    # G: k = 1
            ([1, 0, 2, -2], [3, 1, -2, 5, 0, 0]),    # G: k = 2
            ([4, -3, 1, 2], [-1, 2, 7, 0, 0, 0]),    # G: k = 3
            ([1, 2, 3, -2], [6, 0, 0, 0, 0, 0]),     # G: k = 5, so b is constant
            ([3, -1, 2, 0], [1, 4, -2, 0, 3, 2]),    # swapped, F: k = 1
            ([-2, 5, 0, 0], [2, 0, 1, -3, 1, -3]),   # swapped, F: k = 2
            ([7, 0, 0, 0], [1, 1, 2, -1, 3, 2]),     # swapped, F: k = 3, so b is constant
            ([1, 2, 1, 0], [3, 1, 0, 2, 1, 0]),      # both leads zero
            ([0, 0, 0, 0], [1, 2, 3, 4, 5, 6]),      # F vanishes
            ([1, 1, 1, 1], [0, 0, 0, 0, 0, 0]),      # G vanishes
        ]
        f = [list(column) for column in zip(*(node[0] for node in nodes))]
        g = [list(column) for column in zip(*(node[1] for node in nodes))]
        expected = [determinant(integer_rows(constant_form(*fc), constant_form(*gc)))
                    if any(fc) and any(gc) else 0 for fc, gc in nodes]
        assert all(expected[:9]) and not any(expected[9:])
        assert _line_resultants(f, g) == expected

    def test_form_vanishing_at_a_node(self):
        # F = x*x1 + x*x2 is identically zero at the node x = 0
        f = binary_form(1, (parse("x"), parse("x")))
        g = binary_form(1, (parse("1"), parse("2")))
        assert resultant(f, g) == leibniz(sylvester_matrix(f, g)) == parse("-x")

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree at least 1"):
            resultant(binary_form(0, (parse("1"),)), as_binary_form(parse("x1")))

    def test_inexact_division_raises(self):
        # t*(t - 1)/2 takes the values 0, 0, 1 at 0, 1, 2 but has no integer
        # coefficients: the division by 2! leaves a remainder
        assert _interpolate([0, 1, 4], 0) == [0, 0, 1]
        with pytest.raises(ArithmeticError):
            _interpolate([0, 0, 1], 0)

    def test_inexact_line_division_raises(self):
        # every division at a lockstep node of the line kernel is checked;
        # the theory makes them exact, so the check is driven directly
        assert _exact_line([9, -8, 0], [3, 4, -5]) == [3, -2, 0]
        with pytest.raises(ArithmeticError, match="inexact division of 7 by 2"):
            _exact_line([9, 7, -8], [3, 2, 4])


class TestResultant:
    def test_shared_factor_vanishes(self):
        f = as_binary_form(parse("(x1 - x2)*(x1 + x2)"))
        g = as_binary_form(parse("(x1 - x2)*(x1 + 2*x2)"))
        assert resultant(f, g) == Polynomial()

    def test_coprime_linear(self):
        r = resultant(as_binary_form(parse("x1")), as_binary_form(parse("x2")))
        assert r == Polynomial.constant(1)

    def test_circle_partials(self):
        g = rescaled_cone(parse("x1^2 + x2^2 - 1"))
        r = resultant(as_binary_form(partial_derivative(g, X1)),
                      as_binary_form(partial_derivative(g, X2)))
        assert r == parse("4*(-y)^4 - 4*(-y)^2*(1-x)^2 - 4*(-y)^2*x^2")

    def test_common_root_detection(self):
        rng = random.Random(20260810)
        for _ in range(25):
            shared = (rng.randint(-4, 4), rng.choice([1, 2, 3]))
            extra_f = [(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(2)]
            extra_g = [(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(2)]
            assert resultant(form_product([shared] + extra_f),
                             form_product([shared] + extra_g)) == Polynomial()

    def test_coprime_nonzero(self):
        rng = random.Random(99)
        count = 0
        while count < 50:
            roots = [(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(4)]
            normalized = {Fraction(a, b) for a, b in roots}
            if len(normalized) < 4:
                continue  # a repeated projective root would be a shared factor
            f = form_product(roots[:2])
            g = form_product(roots[2:])
            assert resultant(f, g) != Polynomial()
            count += 1

    def test_multiplicativity(self):
        rng = random.Random(7)
        checked = 0
        while checked < 30:
            fc = [rng.randint(-3, 3) for _ in range(3)]
            gc = [rng.randint(-3, 3) for _ in range(3)]
            hc = [rng.randint(-3, 3) for _ in range(2)]
            # keep the forms at their nominal degrees
            if not (fc[-1] and gc[-1] and hc[-1]):
                continue
            f, g, h = constant_form(*fc), constant_form(*gc), constant_form(*hc)
            x1 = Polynomial.variable(X1)
            x2 = Polynomial.variable(X2)
            f_poly = fc[0] * x2 ** 2 + fc[1] * x1 * x2 + fc[2] * x1 ** 2
            g_poly = gc[0] * x2 ** 2 + gc[1] * x1 * x2 + gc[2] * x1 ** 2
            product = as_binary_form(f_poly * g_poly)
            assert resultant(product, h) == resultant(f, h) * resultant(g, h)
            checked += 1

    @settings(max_examples=25)
    @given(st.integers(1, 2), st.integers(1, 2), st.data())
    def test_matches_leibniz_expansion(self, n, m, data):
        # integer coefficient polynomials in both form variables
        coeff = polynomials(variables=(X, Y), max_terms=3, max_degree=2)
        f_coeffs = tuple(data.draw(coeff) for _ in range(n + 1))
        g_coeffs = tuple(data.draw(coeff) for _ in range(m + 1))
        assume(any(f_coeffs) and any(g_coeffs))
        f, g = binary_form(n, f_coeffs), binary_form(m, g_coeffs)
        assert resultant(f, g) == leibniz(sylvester_matrix(f, g))

    @settings(max_examples=60)
    @given(st.integers(1, 2), st.integers(1, 2), st.data())
    def test_shared_coefficient_parts(self, n, m, data):
        # coefficients that are integer multiples (negative, zero, repeated)
        # of a few shared integer polynomials: each shared part's grid line is
        # evaluated once and scaled by each coefficient's integer factor
        coeff = polynomials(variables=(X, Y), max_terms=3, max_degree=2)
        shared = data.draw(st.lists(coeff, min_size=1, max_size=3))
        multiple = st.builds(lambda p, k: k * p, st.sampled_from(shared), st.integers(-3, 3))
        f_coeffs = tuple(data.draw(multiple) for _ in range(n + 1))
        g_coeffs = tuple(data.draw(multiple) for _ in range(m + 1))
        assume(any(f_coeffs) and any(g_coeffs))
        f, g = binary_form(n, f_coeffs), binary_form(m, g_coeffs)
        assert resultant(f, g) == leibniz(sylvester_matrix(f, g))

    def test_rational_coefficient_rejected(self):
        # the PRS runs over the integers: a caller clears denominators first
        half_x = Polynomial({monomial((X,), (1,)): Fraction(1, 2)})
        with pytest.raises(ValueError, match="integer coefficients"):
            resultant(binary_form(1, (half_x, parse("1"))), as_binary_form(parse("x1 + x2")))

    def test_dual_evaluates_each_cone_coefficient_once(self, monkeypatch):
        # the partial forms' 2n coefficients are multiples of the cone's n + 1
        calls = []
        original = elimination._grid_lines

        def counted(terms, xs, ys):
            calls.append((len(xs), len(ys)))
            return original(terms, xs, ys)

        monkeypatch.setattr(elimination, "_grid_lines", counted)
        dual_curve(ImplicitCurve(parse("x1^5 + 2*x1^2*x2^3 - x1*x2 + 3*x2 - 1")))
        assert calls == [(41, 41)] * (5 + 1)  # one per part, on the quintic dual's 41 x 41 grid

    def test_degree_bookkeeping(self):
        # raw determinant degree stays within n*(2n - 2) for pipeline inputs
        for text, n in (("x1^2 + x2^2 - 1", 2),
                        ("x1^3 - x1^2 - x2^2 + x2 - 1", 3),
                        ("x1^2*x2 - 1", 3)):
            g = rescaled_cone(parse(text))
            r = resultant(as_binary_form(partial_derivative(g, X1)),
                          as_binary_form(partial_derivative(g, X2)))
            assert total_degree(r) <= n * (2 * n - 2)


DENSE_CUBIC = "-2*x1^3 + 9*x1^2*x2 - 5*x1*x2^2 + 3*x2^3 + 7*x1^2 - 7*x1*x2 - 9*x2^2 + 7*x1 - x2 + 9"
DENSE_QUINTIC = ("-x1^5 + 3*x1^4*x2 + 8*x1^3*x2^2 - 9*x1^2*x2^3 + 6*x1*x2^4 - 2*x2^5 - 8*x1^4"
                 " - 4*x1^3*x2 - 6*x1^2*x2^2 + 3*x1*x2^3 + 7*x2^4 - 2*x1^3 + 4*x1^2*x2"
                 " + 9*x1*x2^2 - 6*x2^3 - 2*x1^2 - 9*x1*x2 - 3*x2^2 + 5*x1 - x2 - 4")


class TestInterpolateGrid:
    # The dual's resultant R(x, y) of a degree-n curve has total degree at most
    # 2N and the factor y^N, N = n(n - 1), on a (2N + 1)^2 grid.  The lines
    # along y are read in full; of the lines along x only those of y^N..y^2N
    # are nonzero, and the one of y^e is cut to its 2N - e + 1 values.  Both
    # axes read in full would be 2 * 13^2 = 338 and 2 * 41^2 = 3362 values.
    @pytest.mark.parametrize("text, count", [
        (DENSE_CUBIC, 13 ** 2 + 7 * 8 // 2),  # 197
        (DENSE_QUINTIC, 41 ** 2 + 21 * 22 // 2),  # 1912
    ], ids=["cubic", "quintic"])
    def test_values_read_for_a_dense_dual(self, monkeypatch, text, count):
        read = []
        original = elimination._interpolate

        def counted(values, start):
            read.append(len(values))
            return original(values, start)

        monkeypatch.setattr(elimination, "_interpolate", counted)
        dual_curve(ImplicitCurve(parse(text)))
        assert sum(read) == count

    def test_lines_cut_to_the_total_degree(self):
        # x + y^2 on a 3 x 3 grid: after the pass along y the y^2 line is the
        # constant 1, interpolated from its first value alone
        xs = ys = range(-1, 2)
        values = [x + y ** 2 for x in xs for y in ys]
        _interpolate_grid(values, xs, ys, 2)
        assert values == [0, 0, 1, 1, 0, 0, 0, 0, 0]

    def test_nonzero_line_past_total_degree_raises(self):
        # x * y^2: its y^2 line is nonzero, and a bound of 1 leaves it no degree
        xs = ys = range(-1, 2)
        values = [x * y ** 2 for x in xs for y in ys]
        with pytest.raises(ArithmeticError, match="total degree bound 1"):
            _interpolate_grid(list(values), xs, ys, 1)
        _interpolate_grid(values, xs, ys, 3)
        assert values == [0, 0, 0, 0, 0, 1, 0, 0, 0]
