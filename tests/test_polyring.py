from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import all_variable_polynomials, nonzero_polynomials, polynomials
from pardual.dualize import DegenerateCurveError, ImplicitCurve, dual_curve
from pardual.polyparse import parse
from pardual.polyring import (
    ETA,
    PSI,
    X,
    X1,
    X2,
    X3,
    XI,
    Y,
    FloatForm,
    Polynomial,
    content_and_primitive,
    evaluate_exact,
    evaluate_float,
    homogenize,
    mono_degree,
    partial_derivative,
    sorted_terms,
    substitute,
    total_degree,
    variables,
)


class TestArithmetic:
    def test_add_cancels(self):
        assert parse("x1 + 1") + parse("x1 - 1") == parse("2*x1")

    def test_add_zero_identity(self):
        p = parse("x1^2 - 3*x2")
        assert p + Polynomial.zero() == p

    def test_add_disjoint(self):
        assert parse("x1^2") + parse("x2^2") == parse("x1^2 + x2^2")

    def test_integral_coefficients_held_as_int(self):
        # integer polynomials carry no Fraction object per term
        p = Polynomial({((X1, 1),): Fraction(6, 3), (): Fraction(1, 2)})
        assert type(p.terms[((X1, 1),)]) is int
        assert p.terms[()] == Fraction(1, 2)
        q = parse("3*x1^2 - 2*x2") * parse("x1 - 5") + parse("7")
        assert all(type(c) is int for c in q.terms.values())
        _, primitive = content_and_primitive(parse("1/2*x1 + 3/4"))
        assert all(type(c) is int for c in primitive.terms.values())

    def test_mul_difference_of_squares(self):
        assert parse("x1 - x2") * parse("x1 + x2") == parse("x1^2 - x2^2")

    def test_mul_one_identity(self):
        p = parse("x1^2*x2 - 1")
        assert p * Polynomial.constant(1) == p

    def test_square_via_mul(self):
        p = parse("x1 + 1")
        assert p * p == parse("x1^2 + 2*x1 + 1")

    def test_scalar_coercion(self):
        assert 1 - parse("x") == parse("1 - x")
        assert Fraction(1, 2) * parse("2*x1") == parse("x1")


class TestDerivative:
    def test_cubic(self):
        p = parse("x1^3 - x1^2 - x2^2 + x2 - 1")
        assert partial_derivative(p, X1) == parse("3*x1^2 - 2*x1")

    def test_binary_form_gradient(self):
        # conic-shaped form with eta, xi, psi standing in for the c_i
        form = parse("eta*x1^2 + 2*xi*x1*x2 + psi*x2^2")
        assert partial_derivative(form, X1) == parse("2*eta*x1 + 2*xi*x2")
        assert partial_derivative(form, X2) == parse("2*xi*x1 + 2*psi*x2")

    def test_constant(self):
        assert partial_derivative(parse("5"), X2) == Polynomial.zero()


class TestHomogenize:
    def test_cubic_paper_form(self):
        f = parse("x1^3 - x1^2 - x2^2 + x2 - 1")
        expected = parse("x1^3 - x1^2*x3 - x2^2*x3 + x2*x3^2 - x3^3")
        assert homogenize(f, X3) == expected

    def test_conic_shape(self):
        f = parse("2*x1^2 + 4*x1*x2 + 6*x1 + 3*x2^2 + 10*x2 + 7")
        expected = parse("2*x1^2 + 4*x1*x2 + 6*x1*x3 + 3*x2^2 + 10*x2*x3 + 7*x3^2")
        assert homogenize(f, X3) == expected

    def test_already_homogeneous(self):
        p = parse("x1^2 + x2^2")
        assert homogenize(p, X3) == p

    def test_variable_present_rejected(self):
        with pytest.raises(ValueError):
            homogenize(parse("x1 + x3"), X3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            homogenize(Polynomial.zero(), X3)

    @given(nonzero_polynomials())
    def test_round_trip(self, p):
        assert substitute(homogenize(p, X3), {X3: Polynomial.constant(1)}) == p

    @given(nonzero_polynomials())
    def test_homogeneous_and_degree_preserving(self, p):
        lifted = homogenize(p, X3)
        assert {mono_degree(mono) for mono in lifted.terms} == {total_degree(p)}

    @given(nonzero_polynomials())
    def test_euler_identity(self, p):
        lifted = homogenize(p, X3)
        n = total_degree(lifted)
        total = sum(
            (Polynomial.variable(v) * partial_derivative(lifted, v)
             for v in (X1, X2, X3)),
            Polynomial.zero())
        assert total == n * lifted


class TestDehomogenize:
    # dehomogenizing is substituting x3 = 1
    def test_cubic(self):
        p = parse("x1^3 - x1^2*x3 - x2^2*x3 + x2*x3^2 - x3^3")
        assert substitute(p, {X3: Polynomial.constant(1)}) == parse("x1^3 - x1^2 - x2^2 + x2 - 1")

    def test_pure_power(self):
        assert substitute(parse("x3^2"), {X3: Polynomial.constant(1)}) == parse("1")


class TestSubstitute:
    def test_rescale(self):
        p = parse("x1*x2")
        psi = Polynomial.variable(PSI)
        out = substitute(p, {X1: psi * Polynomial.variable(X1),
                             X2: psi * Polynomial.variable(X2)})
        assert out == parse("psi^2*x1*x2")

    def test_linear_replacement(self):
        out = substitute(parse("x3"), {X3: parse("-(eta*x1 + xi*x2)")})
        assert out == parse("-eta*x1 - xi*x2")

    def test_image_substitution(self):
        r = parse("eta^2 + xi^2 - psi^2")
        out = substitute(r, {ETA: parse("1 - x"), XI: parse("x"), PSI: parse("-y")})
        assert out == parse("2*x^2 - y^2 - 2*x + 1")

    @given(polynomials(variables=(X1, X2, X3)))
    def test_identity_bindings(self, p):
        identity = {v: Polynomial.variable(v) for v in (X1, X2, X3)}
        assert substitute(p, identity) == p


class TestDegrees:
    def test_total_degree(self):
        assert total_degree(parse("x1^3 + x2")) == 3

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError):
            total_degree(Polynomial.zero())


class TestContentPrimitive:
    def test_common_factor(self):
        content, primitive = content_and_primitive(parse("4*psi^2*eta^2 + 8*psi^2*xi^2"))
        assert content == 4
        assert primitive == parse("psi^2*eta^2 + 2*psi^2*xi^2")

    def test_negative_leading_flips(self):
        p = parse("-3*psi^6") * parse("eta^2 + 2")
        content, primitive = content_and_primitive(p)
        assert content == -3
        assert primitive == parse("psi^6*eta^2 + 2*psi^6")

    def test_primitive_input(self):
        content, primitive = content_and_primitive(parse("x1^2 - x2"))
        assert content == 1
        assert primitive == parse("x1^2 - x2")

    def test_rational_coefficients(self):
        content, primitive = content_and_primitive(parse("1/2*x1 + 3/2"))
        assert content == Fraction(1, 2)
        assert primitive == parse("x1 + 3")

    @given(nonzero_polynomials())
    def test_reassembles(self, p):
        content, primitive = content_and_primitive(p)
        assert content * primitive == p


class TestEvaluate:
    def test_circle_point(self):
        p = parse("x1^2 + x2^2 - 1")
        assert evaluate_exact(p, {X1: 1, X2: 0}) == 0

    def test_fig9_point(self):
        assert evaluate_exact(parse("x1^2*x2 - 1"), {X1: 1, X2: 1}) == 0

    def test_node_cubic_origin(self):
        p = parse("x1^3 + x2^2 - 3*x1*x2")
        assert evaluate_exact(p, {X1: 0, X2: 0}) == 0
        assert evaluate_float(p, {X1: 0.0, X2: 0.0}) == 0.0

    def test_unbound_variable(self):
        with pytest.raises(ValueError):
            evaluate_exact(parse("x1 + x2"), {X1: 1})
        with pytest.raises(ValueError):
            evaluate_float(parse("x1 + x2"), {X1: 1.0})

    def test_rational_point(self):
        p = parse("x1^2 + x2^2 - 1")
        assert evaluate_exact(p, {X1: Fraction(3, 5), X2: Fraction(4, 5)}) == 0


class TestRingAxioms:
    @given(polynomials(), polynomials())
    def test_add_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomials(), polynomials())
    def test_mul_commutes(self, p, q):
        assert p * q == q * p

    @given(polynomials(), polynomials(), polynomials())
    def test_add_associates(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polynomials(), polynomials(), polynomials())
    def test_mul_associates(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polynomials(), polynomials(), polynomials())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(all_variable_polynomials)
    def test_variables_subset_of_registry(self, p):
        assert all(0 <= v < 8 for v in variables(p))


def reference_line_coefficients(f, fixed_var, fixed_val, free_var):
    """The scan-line restriction sample_curve used before FloatForm.line."""
    degree = total_degree(f)
    coeffs = [0.0] * (degree + 1)
    for mono, coeff in sorted_terms(f):
        term = float(coeff)
        free_exp = 0
        for var, exp in mono:
            if var == fixed_var:
                term *= fixed_val ** exp
            elif var == free_var:
                free_exp = exp
        coeffs[free_exp] += term
    return coeffs


def reference_max_abs_term(p, point):
    """The residual scale verify used before FloatForm.max_abs_term."""
    worst = 0.0
    for mono, coeff in p.terms.items():
        term = abs(float(coeff))
        for var, exp in mono:
            term *= abs(point[var]) ** exp
        worst = max(worst, term)
    return worst


@st.composite
def dense_polynomials(draw, axes):
    """Every monomial of degree <= d in the pair, Fraction coefficients
    (some zero)."""
    degree = draw(st.integers(min_value=1, max_value=6))
    ax, ay = axes
    terms = {}
    for total in range(degree + 1):
        for a in range(total + 1):
            mono = tuple((v, e) for v, e in ((ax, a), (ay, total - a)) if e)
            terms[mono] = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 12)))
    p = Polynomial(terms)
    assume(p)
    return p


@st.composite
def dense_cubic_duals(draw):
    terms = {}
    for total in range(4):
        for a in range(total + 1):
            mono = tuple((v, e) for v, e in ((X1, a), (X2, total - a)) if e)
            terms[mono] = draw(st.integers(-9, 9).filter(bool))
    try:
        return dual_curve(ImplicitCurve(Polynomial(terms))).g
    except DegenerateCurveError:
        assume(False)


# 0.0, negative values and the edges of the default window -3..3
coordinates = st.one_of(st.sampled_from([0.0, -0.0, -3.0, 3.0, -1.0, 1.0, -0.5]),
                        st.floats(-3.0, 3.0), st.floats(-40.0, 40.0))
point_lists = st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=8)
axis_pairs = st.sampled_from([(X1, X2), (X, Y)])


def bits(values):
    return [float(v).hex() for v in values]


class TestFloatForm:
    """FloatForm must reproduce the float evaluation it replaced bit for
    bit (signs of zero included): a rounding difference can flip a
    near-zero sign in marching squares and move an SVG vertex."""

    def check(self, p, axes, points):
        ax, ay = axes
        form = FloatForm(p, ax, ay)
        for x, y in points:
            expected = evaluate_float(p, {ax: x, ay: y})
            column = 0.0
            for coeff, b in form.restrict(ax, x):
                column += coeff * y ** b
            assert bits([form(x, y), column]) == bits([expected, expected])
            assert (bits([form.max_abs_term(x, y)])
                    == bits([reference_max_abs_term(p, {ax: x, ay: y})]))
            for fixed, free, value in ((ax, ay, x), (ay, ax, y)):
                assert (bits(form.line(fixed, value))
                        == bits(reference_line_coefficients(p, fixed, value, free)))

    @given(axis_pairs.flatmap(lambda axes: st.tuples(st.just(axes), dense_polynomials(axes))),
           point_lists)
    def test_dense_rational_polynomials(self, axes_and_p, points):
        axes, p = axes_and_p
        self.check(p, axes, points)

    @settings(max_examples=30, deadline=None)
    @given(dense_cubic_duals(), point_lists)
    def test_duals_of_dense_cubics(self, g, points):
        self.check(g, (X, Y), points)

    def test_zero_polynomial(self):
        form = FloatForm(Polynomial.zero(), X1, X2)
        assert form(1.5, -2.0) == 0.0 and form.line(X1, 1.5) == [0.0]

    def test_foreign_variable_rejected(self):
        with pytest.raises(ValueError):
            FloatForm(parse("x1 + y"), X1, X2)

    def test_axes_in_registry_order(self):
        with pytest.raises(ValueError):
            FloatForm(parse("x1 + x2"), X2, X1)
