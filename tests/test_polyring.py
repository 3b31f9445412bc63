from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from helpers import (
    all_variable_polynomials,
    evaluate_float,
    homogenized,
    monomial_table,
    monomials,
    nonzero_polynomials,
    polynomials,
    substitute,
)
from pardual.dualize import DegenerateCurveError, ImplicitCurve, dual_curve
from pardual.polyparse import parse
from pardual.polyring import (
    NUM_VARS,
    ONE_MONOMIAL,
    VAR_NAMES,
    X,
    X1,
    X2,
    Y,
    FloatForm,
    Polynomial,
    content_and_primitive,
    evaluate_exact,
    exponents,
    mono_degree,
    monomial,
    partial_derivative,
    sorted_terms,
    total_degree,
    variables,
)


class TestArithmetic:
    def test_add_cancels(self):
        assert parse("x1 + 1") + parse("x1 - 1") == parse("2*x1")

    def test_add_zero_identity(self):
        p = parse("x1^2 - 3*x2")
        assert p + Polynomial() == p

    def test_add_disjoint(self):
        assert parse("x1^2") + parse("x2^2") == parse("x1^2 + x2^2")

    def test_integral_coefficients_held_as_int(self):
        # integer polynomials carry no Fraction object per term
        x1 = monomial((X1,), (1,))
        p = Polynomial({x1: Fraction(6, 3), ONE_MONOMIAL: Fraction(1, 2)})
        assert type(p.terms[x1]) is int
        assert p.terms[ONE_MONOMIAL] == Fraction(1, 2)
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

    def test_unhashable(self):
        # a constant equals its int value, so a hash would have to agree with int's
        for p in (Polynomial(), Polynomial.constant(3), parse("x1*y")):
            with pytest.raises(TypeError):
                hash(p)


class TestDerivative:
    def test_cubic(self):
        p = parse("x1^3 - x1^2 - x2^2 + x2 - 1")
        assert partial_derivative(p, X1) == parse("3*x1^2 - 2*x1")

    def test_binary_form_gradient(self):
        # conic-shaped form with x, y, x*y standing in for the c_i
        form = parse("x*x1^2 + 2*y*x1*x2 + x*y*x2^2")
        assert partial_derivative(form, X1) == parse("2*x*x1 + 2*y*x2")
        assert partial_derivative(form, X2) == parse("2*y*x1 + 2*x*y*x2")

    def test_constant(self):
        assert partial_derivative(parse("5"), X2) == Polynomial()


VAR_X1, VAR_X2, VAR_Y = map(Polynomial.variable, (X1, X2, Y))


class TestHomogenize:
    # homogenized(f, x1, x2, y) is f homogenized, with y standing in for x3
    def test_cubic_paper_form(self):
        f = parse("x1^3 - x1^2 - x2^2 + x2 - 1")
        expected = parse("x1^3 - x1^2*y - x2^2*y + x2*y^2 - y^3")
        assert homogenized(f, VAR_X1, VAR_X2, VAR_Y) == expected

    def test_conic_shape(self):
        f = parse("2*x1^2 + 4*x1*x2 + 6*x1 + 3*x2^2 + 10*x2 + 7")
        expected = parse("2*x1^2 + 4*x1*x2 + 6*x1*y + 3*x2^2 + 10*x2*y + 7*y^2")
        assert homogenized(f, VAR_X1, VAR_X2, VAR_Y) == expected

    def test_already_homogeneous(self):
        p = parse("x1^2 + x2^2")
        assert homogenized(p, VAR_X1, VAR_X2, VAR_Y) == p

    def test_variable_present_rejected(self):
        with pytest.raises(ValueError, match="found y"):
            homogenized(parse("x1 + y"), VAR_X1, VAR_X2, VAR_Y)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            homogenized(Polynomial(), VAR_X1, VAR_X2, VAR_Y)

    @given(nonzero_polynomials())
    def test_round_trip(self, p):
        assert homogenized(p, VAR_X1, VAR_X2, 1) == p

    @given(nonzero_polynomials())
    def test_homogeneous_and_degree_preserving(self, p):
        lifted = homogenized(p, VAR_X1, VAR_X2, VAR_Y)
        assert {mono_degree(mono) for mono in lifted.terms} == {total_degree(p)}

    @given(nonzero_polynomials())
    def test_euler_identity(self, p):
        lifted = homogenized(p, VAR_X1, VAR_X2, VAR_Y)
        n = total_degree(lifted)
        total = sum(
            (Polynomial.variable(v) * partial_derivative(lifted, v)
             for v in (X1, X2, Y)),
            Polynomial())
        assert total == n * lifted


class TestDehomogenize:
    # dehomogenizing is substituting 1 for the homogenizing variable, here y
    def test_cubic(self):
        p = parse("x1^3 - x1^2*y - x2^2*y + x2*y^2 - y^3")
        assert substitute(p, {Y: Polynomial.constant(1)}) == parse("x1^3 - x1^2 - x2^2 + x2 - 1")

    def test_pure_power(self):
        assert substitute(parse("y^2"), {Y: Polynomial.constant(1)}) == parse("1")


class TestSubstitute:
    def test_rescale(self):
        p = parse("x1*x2")
        out = substitute(p, {X1: VAR_Y * VAR_X1, X2: VAR_Y * VAR_X2})
        assert out == parse("y^2*x1*x2")

    def test_linear_replacement(self):
        # the cone's third argument under the image map, for y in place of x3
        out = substitute(parse("y"), {Y: parse("-((1 - x)*x1 + x*x2)")})
        assert out == parse("-x1 + x*x1 - x*x2")

    def test_image_substitution(self):
        # the circle's dual form eta^2 + xi^2 - psi^2, with x1, x2, y for
        # eta, xi, psi, under the image map eta -> 1 - x, xi -> x, psi -> -y
        r = parse("x1^2 + x2^2 - y^2")
        out = substitute(r, {X1: parse("1 - x"), X2: parse("x"), Y: parse("-y")})
        assert out == parse("2*x^2 - y^2 - 2*x + 1")

    @given(polynomials(variables=(X1, X2, Y)))
    def test_identity_bindings(self, p):
        identity = {v: Polynomial.variable(v) for v in (X1, X2, Y)}
        assert substitute(p, identity) == p


class TestDegrees:
    def test_total_degree(self):
        assert total_degree(parse("x1^3 + x2")) == 3

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError):
            total_degree(Polynomial())


class TestContentPrimitive:
    def test_common_factor(self):
        content, primitive = content_and_primitive(parse("4*y^2*x^2 + 8*y^2*x1^2"))
        assert content == 4
        assert primitive == parse("y^2*x^2 + 2*y^2*x1^2")

    def test_negative_leading_flips(self):
        p = parse("-3*y^6") * parse("x^2 + 2")
        content, primitive = content_and_primitive(p)
        assert content == -3
        assert primitive == parse("y^6*x^2 + 2*y^6")

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

    @settings(max_examples=50)
    @given(nonzero_polynomials(max_terms=4, max_degree=3),
           nonzero_polynomials(max_terms=4, max_degree=3), st.integers(0, 3), st.integers(2, 12))
    def test_integer_polynomials_stay_int(self, p, q, e, k):
        content, primitive = content_and_primitive(p)
        assert type(content) is Fraction
        # rational operands whose sum or product is integral: p in two parts,
        # and p / k times (q * k / (k + 1)) times k + 1
        part, rest = p * Fraction(1, k), p * Fraction(k - 1, k)
        for result in (p, p + q, p * q, p ** e, primitive, part + rest, part * k, -part * k,
                       part * (q * Fraction(k, k + 1)) * (k + 1)):
            assert all(type(c) is int for c in result.terms.values())

    @settings(max_examples=50)
    @given(nonzero_polynomials(), st.integers(1, 12))
    def test_integer_and_rational_paths_agree(self, p, k):
        # p's coefficients are integers; p / k's are rational unless k divides them all
        content, primitive = content_and_primitive(p)
        assert content_and_primitive(p * Fraction(1, k)) == (content / k, primitive)


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
        assert all(0 <= v < NUM_VARS for v in variables(p))

    def test_registry_is_the_two_planes(self):
        # the source pair and the image pair; the paper's x3, eta, xi and psi
        # are notation, not variables
        assert VAR_NAMES == ("x1", "x2", "x", "y") and (X1, X2, X, Y) == (0, 1, 2, 3)
        with pytest.raises(ValueError, match="outside the registry"):
            Polynomial.variable(NUM_VARS)


class TestMonomialFormat:
    """exponents and monomial are how every other module reads and builds a
    monomial, so their contract is checked through them alone."""

    def test_absent_variables_read_zero(self):
        mono = monomial((X1, Y), (2, 3))
        assert exponents(mono, (Y, X2, X1)) == (3, 0, 2)
        assert exponents(mono) == (2, 0, 0, 3)
        assert monomial((X1, X2), (0, 0)) == ONE_MONOMIAL
        assert exponents(ONE_MONOMIAL, (X,)) == (0,)

    @given(all_variable_polynomials)
    def test_monomial_inverts_exponents(self, p):
        registry = tuple(range(NUM_VARS))
        used = sorted(variables(p))
        for mono in p.terms:
            assert monomial(registry, exponents(mono, registry)) == mono
            assert monomial(used, exponents(mono, used)) == mono

    @given(all_variable_polynomials)
    def test_sorted_terms_is_graded_lex_on_exponents(self, p):
        def key(term):
            exps = exponents(term[0])
            return (sum(exps), exps)
        assert sorted_terms(p) == sorted(p.terms.items(), key=key, reverse=True)


class TestMonomialStrategy:
    """helpers.monomials draws a degree and an index into monomial_table."""

    @pytest.mark.parametrize("variables, max_degree", [
        ((X1, X2), 0), ((X1, X2), 4), ((X, Y), 6), ((X1, X2, X, Y), 3),
        (tuple(range(NUM_VARS)), 6),
    ])
    def test_table_holds_every_exponent_vector(self, variables, max_degree):
        table = monomial_table(variables, max_degree)
        vectors = [exponents(mono, variables) for row in table for mono in row]
        assert all(sum(exps) == degree
                   for degree, row in enumerate(table) for exps in map(exponents, row))
        # distinct vectors of sum <= max_degree, as many as there are such vectors
        assert len(set(vectors)) == len(vectors) == comb(len(variables) + max_degree, max_degree)
        if len(variables) <= 4:
            assert set(vectors) == {exps for exps in product(range(max_degree + 1),
                                                             repeat=len(variables))
                                    if sum(exps) <= max_degree}

    def test_shrinks_to_one_monomial(self):
        strategy = monomials(variables=tuple(range(NUM_VARS)), max_degree=6)
        assert find(strategy, lambda mono: True, settings=settings(database=None)) == ONE_MONOMIAL


# one numerator per variable over one denominator: cheaper to draw than a fraction each
rational_points = st.tuples(
    st.lists(st.integers(-15, 15), min_size=NUM_VARS, max_size=NUM_VARS), st.integers(1, 5),
).map(lambda draw: {var: Fraction(n, draw[1]) for var, n in enumerate(draw[0])})


class TestEvaluationHomomorphism:
    """Exact evaluation at a point of all four variables maps each ring
    operation onto the same operation on the values.  TestRingAxioms only
    compares results with each other, so an exponent slip that every
    operation makes alike passes it but not this."""

    @given(all_variable_polynomials, all_variable_polynomials, st.integers(0, 3),
           st.integers(0, NUM_VARS - 1), rational_points)
    def test_operations_map_onto_values(self, p, q, k, var, point):
        p_at, q_at = evaluate_exact(p, point), evaluate_exact(q, point)
        assert evaluate_exact(p + q, point) == p_at + q_at
        assert evaluate_exact(p * q, point) == p_at * q_at
        assert evaluate_exact(p ** k, point) == p_at ** k
        assert (evaluate_exact(substitute(p, {var: q}), point)
                == evaluate_exact(p, point | {var: q_at}))
        # homogenized takes a polynomial in x1, x2: p's terms free of x and y
        r = Polynomial({mono: c for mono, c in p.terms.items() if not any(exponents(mono, (X, Y)))})
        if r:
            assert (evaluate_exact(homogenized(r, VAR_X1, VAR_X2, VAR_Y), point | {Y: 1})
                    == evaluate_exact(r, point))


def reference_line_coefficients(f, fixed_var, fixed_val, free_var):
    """The scan-line restriction sample_curve used before FloatForm.line."""
    degree = total_degree(f)
    coeffs = [0.0] * (degree + 1)
    for mono, coeff in sorted_terms(f):
        term = float(coeff)
        fixed_exp, free_exp = exponents(mono, (fixed_var, free_var))
        if fixed_exp:
            term *= fixed_val ** fixed_exp
        coeffs[free_exp] += term
    return coeffs


def reference_max_abs_term(p, point):
    """The residual scale verify used before FloatForm.at read it in the
    value's pass: the largest |c| * |v|**e product over p's terms, from 0.0."""
    worst = 0.0
    for mono, coeff in p.terms.items():
        term = abs(float(coeff))
        for var, exp in enumerate(exponents(mono)):
            if exp:
                term *= abs(point[var]) ** exp
        worst = max(worst, term)
    return worst


@st.composite
def dense_polynomials(draw, axes):
    """Every monomial of degree <= d in the pair, Fraction coefficients
    (some zero)."""
    degree = draw(st.integers(min_value=1, max_value=6))
    terms = {}
    for total in range(degree + 1):
        for a in range(total + 1):
            terms[monomial(axes, (a, total - a))] = Fraction(draw(st.integers(-50, 50)),
                                                             draw(st.integers(1, 12)))
    p = Polynomial(terms)
    assume(p)
    return p


@st.composite
def dense_cubic_duals(draw):
    terms = {}
    for total in range(4):
        for a in range(total + 1):
            terms[monomial((X1, X2), (a, total - a))] = draw(st.integers(-9, 9).filter(bool))
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
    """FloatForm's at (a point's value and scale in one pass) and line must
    reproduce the float evaluations they replaced bit for bit (signs of
    zero included): a rounding difference can flip a near-zero sign in
    sampling and move a sample.  The plot's column rule built on line is
    checked against exact values in tests/test_plot.py.  FloatForm reads
    its pair from p: the one p was drawn over, or (x1, x2) for a constant."""

    def check(self, p, axes, points):
        form = FloatForm(p)
        assert form.axes == (axes if variables(p) else (X1, X2))
        ax, ay = form.axes
        for x, y in points:
            value, scale = form.at(x, y)
            assert bits([value]) == bits([evaluate_float(p, {ax: x, ay: y})])
            assert bits([scale]) == bits([reference_max_abs_term(p, {ax: x, ay: y})])
            for fixed, free, fixed_value in ((ax, ay, x), (ay, ax, y)):
                assert (bits(form.line(fixed, fixed_value))
                        == bits(reference_line_coefficients(p, fixed, fixed_value, free)))

    @given(axis_pairs.flatmap(lambda axes: st.tuples(st.just(axes), dense_polynomials(axes))),
           point_lists)
    def test_dense_rational_polynomials(self, axes_and_p, points):
        axes, p = axes_and_p
        self.check(p, axes, points)

    @settings(max_examples=30, deadline=None)
    @given(dense_cubic_duals(), point_lists)
    def test_duals_of_dense_cubics(self, g, points):
        self.check(g, (X, Y), points)

    @pytest.mark.parametrize("text, axes", [("x2^3 - 2*x2 + 1/3", (X1, X2)),
                                            ("y^2 - 3*y", (X, Y))])
    def test_one_variable_takes_its_pair(self, text, axes):
        # a polynomial in x2 alone is still read in (x1, x2), one in y alone in (x, y)
        self.check(parse(text), axes, [(0.0, -0.0), (1.5, -2.0), (-3.0, 0.5)])

    def test_constant(self):
        # a constant names no variable and takes (x1, x2); line runs along either axis
        form = FloatForm(Polynomial.constant(Fraction(5, 2)))
        assert form.axes == (X1, X2) and form.terms == ((2.5, 0, 0),) and form.degree == 0
        assert form.at(1.5, -2.0) == (2.5, 2.5)
        assert form.line(X1, 7.0) == form.line(X2, -7.0) == [2.5]
        with pytest.raises(ValueError, match="not an axis"):
            form.line(X, 7.0)

    def test_zero_polynomial(self):
        form = FloatForm(Polynomial())
        assert form.axes == (X1, X2) and form.terms == ()
        assert form.at(1.5, -2.0) == (0.0, 0.0)
        assert form.line(X1, 1.5) == form.line(X2, 1.5) == [0.0]

    def test_line_takes_only_the_powers_its_terms_use(self):
        # x*y^5 has x to the power 1 only: a table of x**a for every a up to
        # the total degree 6 would take 1e100**6, which overflows
        form = FloatForm(parse("x*y^5"))
        assert form.line(X, 1e100) == [0.0] * 5 + [1e100, 0.0]
        with pytest.raises(OverflowError):
            form.line(Y, 1e100)  # 1e100**5 is taken, and overflows

    def test_mixed_pair_rejected(self):
        for text in ("x1 + y", "x2*x - 1"):
            with pytest.raises(ValueError, match="mixes the"):
                FloatForm(parse(text))
