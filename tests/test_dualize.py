import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    as_binary_form,
    conic_determinant,
    dense_curves,
    evaluate_float,
    exact_quotient,
    homogenized,
    monomials,
    substitute,
)
from modp import image_certificate
from pardual.dualize import (
    ConicMatrix,
    CurveSamples,
    DegenerateCurveError,
    DegreeError,
    DualCurve,
    IdealPointError,
    ImplicitCurve,
    NoSamplesError,
    _partial_forms,
    conic_dual_matrix,
    dual_curve,
    line_dual_point,
    point_image_on_dual,
    point_to_polyline,
    sample_curve,
    verify_duality,
)
from pardual.elimination import resultant
from pardual.polyparse import parse, print_poly
from pardual.polyring import (
    X,
    X1,
    X2,
    Y,
    Polynomial,
    content_and_primitive,
    evaluate_exact,
    exponents,
    monomial,
    partial_derivative,
    total_degree,
)

# Frozen goldens: every dual below was computed independently (Sylvester
# determinant in a separate CAS) and checked against the fundamental
# point-image map at ~1e-16 residual before being frozen here.  The
# paper's printed captions for the first two curves FAIL that check
# (mirrored x; see the acceptance suite, which arbitrates explicitly).
FIG9_SOURCE = "x1^2*x2 - 1"
FIG9_DUAL = "27*x^6 - 4*x^3*y^3 - 54*x^5 + 27*x^4"
FIG9_PSI_POWER = 6

FIG8_SOURCE = "x1^3 + x2^2 - 3*x1*x2"
FIG8_DUAL = ("36*x^4 + 40*x^3*y - 27*x^2*y^2 - 36*x^3 + 78*x^2*y"
             " - 27*x^2 - 6*x*y + 18*x - 4*y + 9")
FIG8_PSI_POWER = 8

SEC32_SOURCE = "x1^3 - x1^2 - x2^2 + x2 - 1"
SEC32_DUAL = ("23*x^6 + 14*x^5*y + 37*x^4*y^2 - 14*x^3*y^3 + 27*x^2*y^4"
              " - 20*x^5 - 112*x^4*y + 40*x^3*y^2 - 48*x^2*y^3 + 74*x^4"
              " + 58*x^3*y + 14*x^2*y^2 + 12*x*y^3 - 86*x^3 - 14*x^2*y"
              " - 10*x*y^2 - 4*y^3 + 55*x^2 - 4*x*y + 4*y^2 - 18*x + 3")
SEC32_PSI_POWER = 6

CIRCLE_SOURCE = "x1^2 + x2^2 - 1"
CIRCLE_DUAL = "2*x^2 - y^2 - 2*x + 1"

WINDOW = (-3.0, 3.0, -3.0, 3.0)


def dense_text(rng, degree):
    """Every monomial of degree <= n, with a nonzero coefficient in [-9, 9]."""
    terms = []
    for total in range(degree, -1, -1):
        for e1 in range(total, -1, -1):
            c = rng.choice([c for c in range(-9, 10) if c])
            mono = "*".join(f"{v}^{e}" for v, e in (("x1", e1), ("x2", total - e1)) if e)
            terms.append(f"{'-' if c < 0 else '+'} {abs(c)}{'*' + mono if mono else ''}")
    return " ".join(terms).removeprefix("+ ")


# sha256 (first 16 hex digits) of "dual: <g>\npsi_power: <k>\n" for ten dense
# cubics, ten dense quartics and one dense quintic drawn in that order from
# random.Random(20261018), as computed by the earlier resultant that
# expanded the Sylvester determinant symbolically.
DENSE_DUAL_SHA256 = (
    "9860c396a28bad3a", "56181e86d014ab59", "f334d670bf81216e", "14d4fba19fa64da9",
    "95de871b71f892bd", "dc778fc6790e324e", "93f0f7e51d240fba", "a9dceda3ba602ffc",
    "d4c27f1d3271e49d", "86d494db54193d31", "e2a4f7f273ed5831", "932ca6be1102dcfa",
    "def80a76b0316029", "bb11b9db270a38de", "6cedc8e13b292c42", "a26f6ba39880e790",
    "3f2e4a2392aeef29", "37ed59d96c439231", "2222d851a63bb270", "c2554a94dc244ac1",
)
DENSE_QUINTIC_DUAL_SHA256 = "f61222c52e4f9f03"


def curve(text):
    return ImplicitCurve(parse(text))


class TestDualCurve:
    def test_fig9_golden(self):
        dual = dual_curve(curve(FIG9_SOURCE))
        assert dual.g == parse(FIG9_DUAL)
        assert dual.psi_power_removed == FIG9_PSI_POWER
        assert dual.source_degree == 3
        assert total_degree(dual.g) == 6

    def test_fig8_golden(self):
        dual = dual_curve(curve(FIG8_SOURCE))
        assert dual.g == parse(FIG8_DUAL)
        assert dual.psi_power_removed == FIG8_PSI_POWER
        # singular point: the image degree drops below n*(n-1) = 6
        assert total_degree(dual.g) == 4

    def test_sec32_golden(self):
        dual = dual_curve(curve(SEC32_SOURCE))
        assert dual.g == parse(SEC32_DUAL)
        assert dual.psi_power_removed == SEC32_PSI_POWER
        assert total_degree(dual.g) == 6

    def test_circle_golden(self):
        dual = dual_curve(curve(CIRCLE_SOURCE))
        assert dual.g == parse(CIRCLE_DUAL)
        assert dual.psi_power_removed == 2

    def test_circle_spot_values_exact(self):
        g = dual_curve(curve(CIRCLE_SOURCE)).g
        for px, py in ((1, 1), (1, -1), (0, 1)):
            assert evaluate_exact(g, {X: Fraction(px), Y: Fraction(py)}) == 0

    def test_scalar_invariance(self):
        # dual_curve works on the primitive part, so a rational scale is cleared
        for source in (CIRCLE_SOURCE, FIG8_SOURCE, FIG9_SOURCE, SEC32_SOURCE, "x1^4 + x2^4 - 1"):
            base = dual_curve(curve(source))
            for scale in (Fraction(3, 7), Fraction(-2), Fraction(5)):
                scaled = dual_curve(ImplicitCurve(scale * parse(source)))
                assert scaled.g == base.g
                assert scaled.psi_power_removed == base.psi_power_removed

    def test_degree_bound(self):
        for source in (FIG9_SOURCE, FIG8_SOURCE, SEC32_SOURCE, CIRCLE_SOURCE):
            c = curve(source)
            dual = dual_curve(c)
            assert total_degree(dual.g) <= c.n * (c.n - 1)

    def test_line_rejected(self):
        with pytest.raises(DegreeError):
            dual_curve(curve("x1 + x2"))

    def test_degree_above_cap_rejected(self):
        # refused before the lift; the cap itself, degree 12, takes about 30 s
        with pytest.raises(DegreeError, match="degree <= 12"):
            dual_curve(curve("x1^13 + x2^13 - 1"))

    def test_reducible_pair_of_lines(self):
        with pytest.raises(DegenerateCurveError):
            dual_curve(curve("x1^2 - x2^2"))

    def test_perfect_square_resultant_vanishes(self):
        # partials share the factor (x1 - x2), so R is identically zero
        with pytest.raises(DegenerateCurveError, match="resultant vanished"):
            dual_curve(curve("x1^2 - 2*x1*x2 + x2^2"))

    def test_pinned_dense_duals(self):
        rng = random.Random(20261018)
        texts = ([dense_text(rng, 3) for _ in range(10)] + [dense_text(rng, 4) for _ in range(10)]
                 + [dense_text(rng, 5)])
        digests = []
        for text in texts:
            dual = dual_curve(curve(text))
            canonical = f"dual: {print_poly(dual.g)}\npsi_power: {dual.psi_power_removed}\n"
            digests.append(hashlib.sha256(canonical.encode()).hexdigest()[:16])
        assert tuple(digests[:20]) == DENSE_DUAL_SHA256
        assert digests[20] == DENSE_QUINTIC_DUAL_SHA256

    def test_reducible_axes(self):
        with pytest.raises(DegenerateCurveError):
            dual_curve(curve("x1*x2"))

    def test_double_line(self):
        with pytest.raises(DegenerateCurveError):
            dual_curve(curve("x2^2"))


def reference_cone(f):
    """F(psi*x1, psi*x2, -(eta*x1 + xi*x2)) for f homogenized to F, under
    dual_curve's image map eta -> 1-x, xi -> x, psi -> -y."""
    x1, x2, x = map(Polynomial.variable, (X1, X2, X))
    eta, xi, psi = 1 - x, x, -Polynomial.variable(Y)
    return homogenized(f, psi * x1, psi * x2, -(eta * x1 + xi * x2))


@st.composite
def lift_sources(draw):
    """Curves of degree 2..5, dense (every monomial) or sparse, with integer
    or rational coefficients."""
    degree = draw(st.integers(2, 5))
    coeffs = draw(st.sampled_from([
        st.integers(-9, 9),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    ]))
    if draw(st.booleans()):
        monos = [monomial((X1, X2), (a, t - a)) for t in range(degree + 1) for a in range(t + 1)]
    else:
        monos = draw(st.lists(monomials(max_degree=degree), max_size=4))
    terms = {mono: draw(coeffs) for mono in monos}
    a = draw(st.integers(0, degree))
    terms[monomial((X1, X2), (a, degree - a))] = draw(coeffs.filter(bool))
    return Polynomial(terms)


class TestPartialForms:
    """_partial_forms expands the cone once and reads both partials off its
    coefficients by Euler's rule; the reference differentiates the cone
    built term by term."""

    def check(self, f):
        cone = reference_cone(f)
        partials = [partial_derivative(cone, var) for var in (X1, X2)]
        if all(partials):
            assert _partial_forms(f) == tuple(map(as_binary_form, partials))
        else:
            with pytest.raises(DegenerateCurveError, match="vanished identically"):
                _partial_forms(f)

    @given(lift_sources())
    def test_matches_reference(self, f):
        self.check(f)

    @pytest.mark.parametrize("source", [FIG9_SOURCE, FIG8_SOURCE, SEC32_SOURCE, CIRCLE_SOURCE,
                                        "x2^2", "x1^3"])
    def test_paper_curves(self, source):
        self.check(parse(source))


def reference_dual(f):
    """(g, k) of dual_curve by Polynomial arithmetic throughout: f's
    primitive part, its cone built term by term (reference_cone), the
    cone's partials, the resultant of those converted to binary forms, the
    quotient by y^k for the largest such k, and its primitive part.  None
    where dual_curve must raise DegenerateCurveError."""
    cone = reference_cone(content_and_primitive(f)[1])
    partials = [partial_derivative(cone, var) for var in (X1, X2)]
    if not all(partials):
        return None
    r = resultant(*map(as_binary_form, partials))
    if not r:
        return None
    k = min(exponents(mono, (Y,))[0] for mono in r.terms)
    _, g = content_and_primitive(exact_quotient(r, Polynomial.variable(Y) ** k))
    return (g, k) if total_degree(g) else None


class TestPsiStrip:
    """dual_curve reads the resultant's exponent pairs once for the y power,
    the content and the leading sign; its g and psi power equal the
    Polynomial route's (reference_dual)."""

    def check(self, f):
        expected = reference_dual(f)
        if expected is None:
            with pytest.raises(DegenerateCurveError):
                dual_curve(ImplicitCurve(f))
        else:
            dual = dual_curve(ImplicitCurve(f))
            assert (dual.g, dual.psi_power_removed) == expected

    @given(dense_curves(max_degree=3))
    def test_dense_conics_and_cubics(self, f):
        self.check(f)

    @pytest.mark.parametrize("source", [FIG8_SOURCE, FIG9_SOURCE, SEC32_SOURCE,
                                        "1/2*x1^3 - 1/3*x2^2 + x1*x2", "(x2-1)^2 - (x1-1)^3",
                                        "x1*x2", "x2^2"])
    def test_fixed_curves(self, source):
        self.check(parse(source))

    def test_fig8_strips_psi_to_the_eighth(self):
        assert reference_dual(parse(FIG8_SOURCE))[1] == FIG8_PSI_POWER == 8
        assert dual_curve(curve(FIG8_SOURCE)).psi_power_removed == 8


XY = Polynomial.variable(X) * Polynomial.variable(Y)


class TestImageCertificate:
    """f divides g's image sum on seeded lines mod 2^61 - 1 (helpers), and
    g + x*y, the negative control, fails on every case."""

    @pytest.mark.parametrize("source", [CIRCLE_SOURCE, FIG8_SOURCE, FIG9_SOURCE, SEC32_SOURCE,
                                        "x1^2 + x2^2 + 1", "(x1-10)^2 + x2^2 - 1",
                                        "x1^4 + x2^4 + 1"])
    def test_fixed_curves(self, source):
        # x1^2 + x2^2 + 1 has no real point, so verify has nothing to sample
        f = parse(source)
        g = dual_curve(ImplicitCurve(f)).g
        assert image_certificate(f, g)
        assert not image_certificate(f, g + XY)

    @settings(max_examples=30, deadline=None)
    @given(dense_curves())
    def test_dense_curves(self, f):
        try:
            g = dual_curve(ImplicitCurve(f)).g
        except DegenerateCurveError:
            assume(False)
        assert image_certificate(f, g)
        assert not image_certificate(f, g + XY)

    def test_curve_without_x2(self):
        # the lines x1 = +-sqrt(2) map to the points (0, +-sqrt(2)): on the
        # lines x2 = t, N = 4*x1^2*(x1^2 - 2) for y^2 - 2, and not for y^2 - 3
        f = parse("x1^2 - 2")
        assert image_certificate(f, parse("y^2 - 2"))
        assert not image_certificate(f, parse("y^2 - 3"))


def collineation(f):
    """F(y, x + y - 1, x), normalized like a dual, for f homogenized to F."""
    x, y = Polynomial.variable(X), Polynomial.variable(Y)
    return content_and_primitive(homogenized(f, y, x + y - 1, x))[1]


def dual_of_dual(f):
    g = dual_curve(ImplicitCurve(f)).g
    return dual_curve(ImplicitCurve(
        substitute(g, {X: Polynomial.variable(X1), Y: Polynomial.variable(X2)}))).g


class TestBiduality:
    """The dual of the dual is f under the collineation (x1 : x2 : x3) ->
    (y : x + y - 1 : x).  For conics the two are equal.  For cubics f's image
    divides it once, and the rest is the lines of g's cusps (f's flexes)."""

    @settings(max_examples=20)
    @given(st.lists(st.integers(-9, 9).filter(bool), min_size=6, max_size=6))
    def test_dense_conics(self, entries):
        source = ConicMatrix.of(*entries)
        assume(conic_determinant(source) != 0)
        f = source.polynomial(X1, X2)
        assert dual_of_dual(f) == collineation(f)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_dense_cubics(self, seed):
        # g has degree 6, so its dual runs on grid lines of 61 nodes (N = 30)
        f = parse(dense_text(random.Random(seed), 3))
        image = collineation(f)
        quotient = exact_quotient(dual_of_dual(f), image)
        assert quotient is not None
        assert exact_quotient(quotient, image) is None


class TestConicDual:
    def test_circle_closed_form(self):
        dual = conic_dual_matrix(ConicMatrix.of(1, 1, -1, 0, 0, 0))
        assert (dual.a1, dual.a2, dual.a3, dual.a4, dual.a5, dual.a6) == (
            Fraction(-2), Fraction(1), Fraction(-1),
            Fraction(0), Fraction(1), Fraction(0))
        assert dual.polynomial(X, Y) == parse("-2*x^2 + y^2 + 2*x - 1")

    def test_determinant_matches_reference(self):
        rng = random.Random(20261018)
        for _ in range(50):
            m = ConicMatrix.of(*(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                 for _ in range(6)))
            assert m.determinant() == conic_determinant(m)
        # the double line x1^2 and the line pair x1^2 - x2^2
        assert ConicMatrix.of(1, 0, 0, 0, 0, 0).determinant() == 0
        assert ConicMatrix.of(1, -1, 0, 0, 0, 0).determinant() == 0

    def test_formulas_total_on_degenerate_input(self):
        conic_dual_matrix(ConicMatrix.of(1, 1, 0, 0, 0, 0))
        conic_dual_matrix(ConicMatrix.of(1, 0, 0, 0, 0, 0))

    def test_source_polynomial_shape(self):
        m = ConicMatrix.of(1, 2, 3, 4, 5, 6)
        assert m.polynomial(X1, X2) == parse(
            "x1^2 + 8*x1*x2 + 10*x1 + 2*x2^2 + 12*x2 + 3")

    def test_matches_general_algorithm(self):
        rng = random.Random(20260810)
        checked = 0
        while checked < 20:
            entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(6)]
            source = ConicMatrix.of(*entries)
            if not source.is_degree_two() or conic_determinant(source) == 0:
                continue
            via_formulas = conic_dual_matrix(source).polynomial(X, Y)
            via_algorithm = dual_curve(ImplicitCurve(source.polynomial(X1, X2)))
            assert via_algorithm.g == content_and_primitive(via_formulas)[1]
            checked += 1


class TestPointImage:
    def test_circle_top(self):
        image = point_image_on_dual(curve(CIRCLE_SOURCE), (0.0, 1.0))
        assert image == pytest.approx((1.0, 1.0))

    def test_circle_right(self):
        image = point_image_on_dual(curve(CIRCLE_SOURCE), (1.0, 0.0))
        assert image == pytest.approx((0.0, 1.0))

    def test_images_land_on_dual(self):
        c = curve(FIG9_SOURCE)
        g = parse(FIG9_DUAL)
        for t in (0.5, 1.0, 1.7, -2.0, 3.0):
            image = point_image_on_dual(c, (t, 1.0 / t ** 2))
            assert abs(evaluate_float(g, {X: image.x, Y: image.y})) < 1e-9

    def test_off_curve_rejected(self):
        with pytest.raises(ValueError, match="not on the curve"):
            point_image_on_dual(curve(CIRCLE_SOURCE), (0.5, 0.5))

    def test_nan_point_not_on_curve(self):
        with pytest.raises(ValueError, match="not on the curve"):
            point_image_on_dual(curve(CIRCLE_SOURCE), (math.nan, 0.0))

    def test_slope_one_tangent_is_ideal(self):
        s = math.sqrt(0.5)
        with pytest.raises(IdealPointError):
            point_image_on_dual(curve(CIRCLE_SOURCE), (-s, s))

    def test_node_is_ideal(self):
        # every term of both partials vanishes at the node, so the relative
        # slope-1 test refuses it (0 <= DENOM_TOL * 0) instead of dividing
        with pytest.raises(IdealPointError):
            point_image_on_dual(curve("x1^2 - x2^2"), (0.0, 0.0))


class TestLineDualPoint:
    def test_horizontal(self):
        assert line_dual_point(0.0, 1.0, 1.0) == pytest.approx((1.0, 1.0))

    def test_diagonal(self):
        assert line_dual_point(-1.0, 0.0, 1.0) == pytest.approx((0.5, 0.0))

    def test_spacing(self):
        assert line_dual_point(0.0, 2.0, 3.0) == pytest.approx((3.0, 2.0))

    def test_slope_one_rejected(self):
        with pytest.raises(IdealPointError):
            line_dual_point(1.0, 0.0)

    def test_bad_spacing(self):
        for d in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                line_dual_point(0.5, 1.0, d)

    def test_concurrency_with_point_duals(self):
        m, b, d = -0.75, 2.0, 1.0
        target = line_dual_point(m, b, d)
        for p1 in (-2.0, 0.3, 1.8):
            polyline = point_to_polyline([p1, m * p1 + b], d)
            (x0, y0), (x1v, y1) = polyline
            slope = (y1 - y0) / (x1v - x0)
            extended = y0 + slope * (target.x - x0)
            assert abs(extended - target.y) < 1e-12


class TestPointToPolyline:
    def test_three_axes(self):
        assert point_to_polyline([1, 2, 3], 1.0) == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]

    def test_constant_point(self):
        assert point_to_polyline([5, 5], 1.0) == [(0.0, 5.0), (1.0, 5.0)]

    def test_too_short(self):
        with pytest.raises(ValueError):
            point_to_polyline([1], 1.0)

    def test_bad_spacing(self):
        for d in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                point_to_polyline([1, 2], d)


class TestSampleCurve:
    def test_circle_count_and_residual(self):
        c = curve(CIRCLE_SOURCE)
        samples = sample_curve(c, (-2.0, 2.0, -2.0, 2.0), 8)
        assert len(samples.points) == 8
        for x1v, x2v in samples.points:
            assert abs(evaluate_float(c.f, {X1: x1v, X2: x2v})) <= 1e-10

    def test_gradients_recorded(self):
        samples = sample_curve(curve(CIRCLE_SOURCE), (-2.0, 2.0, -2.0, 2.0), 8)
        for (x1v, x2v), (g1, g2) in zip(samples.points, samples.gradients):
            assert g1 == pytest.approx(2 * x1v) and g2 == pytest.approx(2 * x2v)
            assert math.hypot(g1, g2) >= 1e-9

    def test_singular_origin_excluded(self):
        samples = sample_curve(curve(FIG8_SOURCE), WINDOW, 100)
        assert len(samples.points) > 0
        for g1, g2 in samples.gradients:
            assert math.hypot(g1, g2) >= 1e-9
        assert (0.0, 0.0) not in samples.points

    def test_empty_locus(self):
        samples = sample_curve(curve("x1^2 + x2^2 + 1"), WINDOW, 10)
        assert len(samples.points) == 0

    def test_deterministic(self):
        a = sample_curve(curve(SEC32_SOURCE), WINDOW, 50)
        b = sample_curve(curve(SEC32_SOURCE), WINDOW, 50)
        assert a == b

    @pytest.mark.parametrize("source, window", [
        # the root refinement overflows to NaN
        (FIG9_SOURCE, (-1e150, 1e150, -1e150, 1e150)),
        ("x1*x2 - 1", (-1e200, 1e200, -1e200, 1e200)),
        # f is finite at the root x1 = 1, but f1 = 3*x1^2*x2 overflows
        ("x1^3*x2 - x2 - 1", (0.0, 2.0, 7e307, 1.7e308)),
    ])
    def test_nonfinite_sample_raises(self, source, window):
        with pytest.raises(OverflowError, match="not finite"):
            sample_curve(curve(source), window, 10)


class TestVerifyDuality:
    @pytest.mark.parametrize("source", [
        FIG9_SOURCE, FIG8_SOURCE, SEC32_SOURCE, CIRCLE_SOURCE])
    def test_every_golden_pair(self, source):
        c = curve(source)
        report = verify_duality(c, dual_curve(c), sample_curve(c, WINDOW, 100))
        assert report.tested > 0
        assert report.max_residual < 1e-6

    def test_conic_pair_tight(self):
        c = curve(CIRCLE_SOURCE)
        formulas = conic_dual_matrix(ConicMatrix.of(1, 1, -1, 0, 0, 0))
        dual = DualCurve(content_and_primitive(formulas.polynomial(X, Y))[1], 2, 2)
        report = verify_duality(c, dual, sample_curve(c, WINDOW, 100))
        assert report.max_residual < 1e-8

    def test_negative_control(self):
        # reusing the source circle equation in (x, y) is not its dual
        c = curve(CIRCLE_SOURCE)
        wrong = DualCurve(parse("x^2 + y^2 - 1"), 2, 2)
        report = verify_duality(c, wrong, sample_curve(c, WINDOW, 100))
        assert report.max_residual > 1e-2

    def test_skipped_counted(self):
        c = curve(CIRCLE_SOURCE)
        samples = sample_curve(c, WINDOW, 200)
        report = verify_duality(c, dual_curve(c), samples)
        assert report.tested + report.skipped == len(samples.points)

    def test_nonfinite_residual_raises(self):
        # the parabola point (0.505, 0.505^2) maps to (-100, 25.5), where the
        # term x^100*y^100 overflows to inf: the NaN residual must not pass as 0
        samples = CurveSamples(((0.505, 0.505 ** 2),), ((1.01, -1.0),))
        dual = DualCurve(Polynomial.variable(X) ** 100 * Polynomial.variable(Y) ** 100, 2, 0)
        with pytest.raises(OverflowError, match="residual"):
            verify_duality(curve("x1^2 - x2"), dual, samples)

    @pytest.mark.parametrize("scale", ["1", "1/100000000", "1/10000000000",
                                       "1/1000000000000000000", "10000000000"])
    def test_scaled_circle_tests_every_sample(self, scale):
        # The gradient tests are relative to the partials' term scale, so
        # every multiple of the circle keeps all 100 samples.  Absolute
        # tests skipped 4 of them at 1/10^8 and refused all at 1/10^10.
        c = curve(" + ".join(f"{scale}*{term}" for term in ("x1^2", "x2^2", "(-1)")))
        report = verify_duality(c, dual_curve(c), sample_curve(c, WINDOW, 100))
        assert (report.tested, report.skipped) == (100, 0)
        assert report.max_residual < 1e-12

    def test_no_samples(self):
        c = curve("x1^2 + x2^2 + 1")
        with pytest.raises(NoSamplesError):
            verify_duality(c, DualCurve(parse("x + y"), 2, 2),
                           sample_curve(c, WINDOW, 10))


class TestImplicitCurve:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ImplicitCurve(parse("0"))

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            ImplicitCurve(parse("3"))

    def test_rejects_foreign_variables(self):
        with pytest.raises(ValueError):
            ImplicitCurve(parse("x + y"))

    def test_degree_recorded(self):
        assert curve(FIG9_SOURCE).n == 3

    def test_plain_exact_data(self):
        # no float state: a coefficient beyond the float range is accepted
        c = curve(f"{10 ** 400}*x1^2 + x2^2 - 1")
        assert ImplicitCurve.__slots__ == ("f", "n")
        assert c.n == 2
