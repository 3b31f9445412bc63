import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import determinant, polynomials, sylvester_matrix
from pardual.elimination import BinaryForm, _interpolate, as_binary_form, resultant
from pardual.polyparse import parse
from pardual.polyring import (
    ETA,
    ONE_MONOMIAL,
    PSI,
    X,
    X1,
    X2,
    X3,
    XI,
    Y,
    Polynomial,
    homogenize,
    monomial,
    partial_derivative,
    substitute,
    total_degree,
    variables,
)


def constant_form(*coeffs):
    """Binary form with integer coefficients, ascending x1-power."""
    return BinaryForm(len(coeffs) - 1, tuple(Polynomial.constant(c) for c in coeffs))


def form_product(roots):
    """Product of linear forms (b*x1 - a*x2) with projective roots (a : b)."""
    poly = Polynomial.constant(1)
    for a, b in roots:
        poly = poly * (b * Polynomial.variable(X1) - a * Polynomial.variable(X2))
    return as_binary_form(poly)


def rescaled_cone(f):
    cone = homogenize(f, X3) if X3 not in variables(f) else f
    x1 = Polynomial.variable(X1)
    x2 = Polynomial.variable(X2)
    return substitute(cone, {
        X1: Polynomial.variable(PSI) * x1,
        X2: Polynomial.variable(PSI) * x2,
        X3: -(Polynomial.variable(ETA) * x1 + Polynomial.variable(XI) * x2),
    })


class TestAsBinaryForm:
    def test_circle_step_two(self):
        g = rescaled_cone(parse("x1^2 + x2^2 - 1"))
        form = as_binary_form(g)
        assert form.degree == 2
        assert form.coeffs[0] == parse("psi^2 - xi^2")
        assert form.coeffs[1] == parse("-2*eta*xi")
        assert form.coeffs[2] == parse("psi^2 - eta^2")

    def test_cubic_step_two(self):
        g = rescaled_cone(parse("x1^3 - x1^2 - x2^2 + x2 - 1"))
        form = as_binary_form(g)
        assert form.degree == 3
        assert form.coeffs[0] == parse("psi^2*xi + psi*xi^2 + xi^3")
        assert form.coeffs[1] == parse("eta*psi^2 + 2*eta*psi*xi + 3*eta*xi^2")
        assert form.coeffs[2] == parse("eta^2*psi + 3*eta^2*xi + psi^2*xi")
        assert form.coeffs[3] == parse("eta^3 + eta*psi^2 + psi^3")

    def test_cross_term(self):
        form = as_binary_form(parse("x1*x2"))
        assert form.degree == 2
        assert [c == 0 for c in form.coeffs] == [True, False, True]
        assert form.coeffs[1] == Polynomial.constant(1)

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError):
            as_binary_form(parse("x1^2 + x2"))

    def test_stray_variable_rejected(self):
        with pytest.raises(ValueError):
            as_binary_form(parse("x3*x1 + x3*x2"))
        BinaryForm(1, (parse("x"), parse("y")))
        with pytest.raises(ValueError):
            BinaryForm(1, (parse("x3"), parse("1")))

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
        f = BinaryForm(1, (parse("2*xi"), parse("2*eta")))
        g = BinaryForm(1, (parse("2*psi"), parse("2*xi")))
        m = sylvester_matrix(f, g)
        assert m == ((parse("2*eta"), parse("2*xi")),
                     (parse("2*xi"), parse("2*psi")))

    def test_cubic_row_pattern(self):
        # degree-2 forms: two shifted rows each, descending powers, zero corners
        c1, c2, c3, c4 = parse("eta"), parse("xi"), parse("psi"), parse("eta^2")
        f = BinaryForm(2, (c3, 2 * c2, 3 * c1))
        g = BinaryForm(2, (3 * c4, 2 * c3, c2))
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
            sylvester_matrix(BinaryForm(0, (parse("1"),)), as_binary_form(parse("x1")))


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


IMAGE_MAP = {ETA: 1 - Polynomial.variable(X), XI: Polynomial.variable(X),
             PSI: -Polynomial.variable(Y)}


class TestDeterminant:
    def test_two_by_two_symbolic(self):
        # the Sylvester matrix ((2*eta, 2*xi), (2*xi, 2*psi)), by interpolation
        f = BinaryForm(1, (parse("2*xi"), parse("2*eta")))
        g = BinaryForm(1, (parse("2*psi"), parse("2*xi")))
        assert resultant(f, g) == parse("4*eta*psi - 4*xi^2")

    def test_identity_four(self):
        rows = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        assert determinant(rows) == 1

    def test_circle_resultant_golden(self):
        g = rescaled_cone(parse("x1^2 + x2^2 - 1"))
        form = as_binary_form(g)
        r = resultant(BinaryForm(1, (form.coeffs[1], 2 * form.coeffs[2])),
                      BinaryForm(1, (2 * form.coeffs[0], form.coeffs[1])))
        # conic resultant factors as 4*psi^2 * (quadratic form)
        assert r == parse("4*psi^2") * parse("psi^2 - eta^2 - xi^2")

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

    def test_form_vanishing_at_a_node(self):
        # F = x*x1 + x*x2 is identically zero at the node x = 0
        f = BinaryForm(1, (parse("x"), parse("x")))
        g = BinaryForm(1, (parse("1"), parse("2")))
        assert resultant(f, g) == leibniz(sylvester_matrix(f, g)) == parse("-x")

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="degree at least 1"):
            resultant(BinaryForm(0, (parse("1"),)), as_binary_form(parse("x1")))

    def test_inexact_division_raises(self):
        # t*(t - 1)/2 takes the values 0, 0, 1 at 0, 1, 2 but has no integer
        # coefficients: the division by 2! leaves a remainder
        assert _interpolate([0, 1, 4], 0) == [0, 0, 1]
        with pytest.raises(ArithmeticError):
            _interpolate([0, 0, 1], 0)


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
        assert r == parse("4*psi^4 - 4*psi^2*eta^2 - 4*psi^2*xi^2")

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
        # rational coefficients in every form variable exercise the scaling
        coeff = polynomials(variables=(ETA, XI, PSI, X, Y), max_terms=3, max_degree=2)
        rational = coeff.map(lambda p: p * Fraction(1, data.draw(st.integers(1, 4))))
        f_coeffs = tuple(data.draw(rational) for _ in range(n + 1))
        g_coeffs = tuple(data.draw(rational) for _ in range(m + 1))
        assume(any(f_coeffs) and any(g_coeffs))
        f, g = BinaryForm(n, f_coeffs), BinaryForm(m, g_coeffs)
        assert resultant(f, g) == leibniz(sylvester_matrix(f, g))

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_commutes_with_image_map(self, degree, data):
        # substitution is a ring homomorphism, so it commutes with the
        # resultant: the pipeline may apply the image map first
        monos = [monomial((X1, X2), (i, t - i)) for t in range(degree + 1) for i in range(t + 1)]
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=len(monos), max_size=len(monos)))
        f = Polynomial(dict(zip(monos, coeffs)))
        assume(f and total_degree(f) == degree)
        cone = rescaled_cone(f)
        d1, d2 = partial_derivative(cone, X1), partial_derivative(cone, X2)
        assume(d1 and d2)
        forms = [as_binary_form(d) for d in (d1, d2)]
        mapped = [BinaryForm(form.degree, tuple(substitute(c, IMAGE_MAP) for c in form.coeffs))
                  for form in forms]
        assert resultant(*mapped) == substitute(resultant(*forms), IMAGE_MAP)

    def test_degree_bookkeeping(self):
        # raw determinant degree stays within n*(2n - 2) for pipeline inputs
        for text, n in (("x1^2 + x2^2 - 1", 2),
                        ("x1^3 - x1^2 - x2^2 + x2 - 1", 3),
                        ("x1^2*x2 - 1", 3)):
            g = rescaled_cone(parse(text))
            r = resultant(as_binary_form(partial_derivative(g, X1)),
                          as_binary_form(partial_derivative(g, X2)))
            assert total_degree(r) <= n * (2 * n - 2)
