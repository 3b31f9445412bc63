"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Where a criterion pins the output to a polynomial printed in the source
material (criteria 1 and 2, and the printed form attempted in criterion 3),
the symbolic comparison is attempted first.  On mismatch the numeric
duality oracle arbitrates, per the documented policy: the computed dual
must pass the residual test and the printed polynomial must fail it, and
the discrepancy is reported loudly.  All three printed forms turn out to
be transcription slips (x mirrored as 1-x); the computed duals sit at
~1e-16 residual while the printed ones sit near 1.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from helpers import (
    as_binary_form,
    conic_determinant,
    evaluate_float,
    form_polynomial,
    gradient,
    line_dual_point,
)
from pardual.cli import main as cli_main
from pardual.dualize import (
    ConicMatrix,
    DegenerateCurveError,
    DualCurve,
    ImplicitCurve,
    RESIDUAL_THRESHOLD,
    _partial_forms,
    conic_dual_matrix,
    dual_curve,
    point_to_polyline,
    sample_curve,
    verify_duality,
)
from pardual.elimination import resultant
from pardual.plot import PlaneScene, Viewport, render_svg, trace_implicit
from pardual.polyparse import parse
from pardual.polyring import (
    X,
    X1,
    X2,
    Y,
    Polynomial,
    content_and_primitive,
    evaluate_exact,
    monomial,
    partial_derivative,
    total_degree,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"
WINDOW = (-3.0, 3.0, -3.0, 3.0)

FIG9_CAPTION = "4*y^3 + 27*x^3 - 27*x^2"
FIG8_CAPTION = ("27*y^2 - 54*y^2*x + 27*y^2*x^2 - 108*y + 270*y*x - 198*y*x^2"
                " + 40*y*x^3 + 108*x^3 - 36*x^4 - 81*x^2")
SEC32_PRINTED = ("-23 + 292*y^2*x^2 - 422*x^2 + 326*y*x^3 - 146*y^2*x + 610*x^3"
                 " + 23*y^2 - 27*y^4*x^2 + 54*y^4*x - 27*y^4 - 22*y*x^5"
                 " - 244*y^2*x^3 - 66*y*x^4 - 420*y*x^2 - 126*y^3*x + 232*y*x"
                 " + 214*x^5 - 499*x^4 + 90*y^3*x^2 + 54*y^3 + 156*x - 50*y"
                 " - 31*x^6 + 71*y^2*x^4 - 14*y^3*x^3")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {label}")
        raise
    print(f"criterion {number:02d} PASS: {label}")


def arbitrate_printed_form(curve, dual, printed_text):
    """Attempt exact symbolic equality with a printed polynomial; on
    mismatch the residual oracle governs.  Returns a report string."""
    printed = content_and_primitive(parse(printed_text))[1]
    if dual.g == printed:
        return "matches printed form exactly"
    samples = sample_curve(curve, WINDOW, 100)
    ours = verify_duality(curve, dual, samples)
    theirs = verify_duality(
        curve, DualCurve(printed, curve.n, dual.psi_power_removed), samples)
    assert ours.max_residual < RESIDUAL_THRESHOLD, (
        f"computed dual fails its own oracle: {ours.max_residual:.3e}")
    assert theirs.max_residual > 1e3 * RESIDUAL_THRESHOLD, (
        f"printed form also passes the oracle ({theirs.max_residual:.3e}); "
        f"symbolic mismatch would be our defect")
    return (f"printed form MISMATCH, oracle arbitration: computed residual "
            f"{ours.max_residual:.2e} (passes), printed residual "
            f"{theirs.max_residual:.2e} (fails) -> computed output governs")


def test_criterion_01_fig9_golden():
    with criterion(1, "Fig. 9 dual of x1^2*x2 - 1"):
        start = time.perf_counter()
        curve = ImplicitCurve(parse("x1^2*x2 - 1"))
        dual = dual_curve(curve)
        elapsed = time.perf_counter() - start
        report = arbitrate_printed_form(curve, dual, FIG9_CAPTION)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        print(f"  fig9: {report}")


def test_criterion_02_fig8_degree_drop():
    with criterion(2, "Fig. 8 dual of the node cubic, degree drop to 4"):
        start = time.perf_counter()
        curve = ImplicitCurve(parse("x1^3 + x2^2 - 3*x1*x2"))
        dual = dual_curve(curve)
        elapsed = time.perf_counter() - start
        assert total_degree(dual.g) == 4
        assert total_degree(dual.g) < curve.n * (curve.n - 1)
        report = arbitrate_printed_form(curve, dual, FIG8_CAPTION)
        assert elapsed < 2.0, f"took {elapsed:.2f}s"
        print(f"  fig8: {report}")


def test_criterion_03_sec32_cubic():
    with criterion(3, "Sec. 3.2 cubic: degree 6, psi power 6, oracle < 1e-6"):
        start = time.perf_counter()
        curve = ImplicitCurve(parse("x1^3 - x1^2 - x2^2 + x2 - 1"))
        dual = dual_curve(curve)
        assert total_degree(dual.g) == 6
        assert dual.psi_power_removed == 6
        report = verify_duality(curve, dual, sample_curve(curve, WINDOW, 100))
        assert report.max_residual < 1e-6
        comparison = arbitrate_printed_form(curve, dual, SEC32_PRINTED)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        print(f"  sec32: oracle max_residual {report.max_residual:.2e} over "
              f"{report.tested} samples; {comparison}")


def test_criterion_04_conic_closure():
    with criterion(4, "50 random nondegenerate conics close over the dual map"):
        rng = random.Random(42)
        start = time.perf_counter()
        checked = 0
        while checked < 50:
            entries = [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)]
            source = ConicMatrix.of(*entries)
            if not source.is_degree_two() or conic_determinant(source) == 0:
                continue
            dual = dual_curve(ImplicitCurve(source.polynomial(X1, X2)))
            assert total_degree(dual.g) == 2
            closed_form = conic_dual_matrix(source).polynomial(X, Y)
            assert dual.g == content_and_primitive(closed_form)[1]
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_05_circle_spot_values():
    with criterion(5, "circle dual vanishes exactly at (1,1), (1,-1), (0,1)"):
        dual = dual_curve(ImplicitCurve(parse("x1^2 + x2^2 - 1")))
        for px, py in ((1, 1), (1, -1), (0, 1)):
            value = evaluate_exact(dual.g, {X: Fraction(px), Y: Fraction(py)})
            assert value == 0


def _random_dense_curve(rng, degree):
    terms = {}
    for e1 in range(degree + 1):
        for e2 in range(degree + 1 - e1):
            coeff = rng.randint(-9, 9)
            if coeff:
                terms[monomial((X1, X2), (e1, e2))] = Fraction(coeff)
    poly = Polynomial(terms)
    if not poly or total_degree(poly) != degree:
        return None
    return ImplicitCurve(poly)


def test_criterion_06_degree_bound():
    with criterion(6, "dual degree <= n(n-1) for random cubics and quartics"):
        rng = random.Random(20260810)
        for degree, quota, budget in ((3, 20, None), (4, 10, 60.0)):
            done = 0
            while done < quota:
                curve = _random_dense_curve(rng, degree)
                if curve is None:
                    continue
                samples = sample_curve(curve, WINDOW, 40)
                if any(math.hypot(*gradient(curve.f, point)) <= 1e-6 for point in samples):
                    continue
                start = time.perf_counter()
                try:
                    dual = dual_curve(curve)
                except DegenerateCurveError:
                    continue
                elapsed = time.perf_counter() - start
                assert total_degree(dual.g) <= degree * (degree - 1)
                if budget is not None:
                    assert elapsed < budget, f"quartic took {elapsed:.1f}s"
                done += 1


def test_criterion_07_euler_identity():
    with criterion(7, "Euler identity holds exactly for 200 random lifts"):
        # the partial forms dual_curve reads off the cone's coefficients
        # must be the partials of L = (x1*F1 + x2*F2)/n
        rng = random.Random(7)
        x1, x2 = Polynomial.variable(X1), Polynomial.variable(X2)
        done = 0
        while done < 200:
            curve = _random_dense_curve(rng, rng.randint(1, 4))
            if curve is None:
                continue
            f1, f2 = map(form_polynomial, _partial_forms(curve.f))
            lifted = Fraction(1, curve.n) * (x1 * f1 + x2 * f2)
            assert partial_derivative(lifted, X1) == f1
            assert partial_derivative(lifted, X2) == f2
            done += 1


def _linear_form(a, b):
    return b * Polynomial.variable(X1) - a * Polynomial.variable(X2)


def test_criterion_08_resultant_suite():
    with criterion(8, "resultant: common factors, coprime pairs, multiplicativity"):
        rng = random.Random(8)
        # shared linear factor forces a vanishing resultant
        for _ in range(20):
            shared = _linear_form(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            f = as_binary_form(shared * _linear_form(rng.randint(-4, 4), 1))
            g = as_binary_form(shared * _linear_form(rng.randint(-4, 4), 1))
            assert resultant(f, g) == Polynomial()
        # coprime constant-coefficient pairs give nonzero resultants
        done = 0
        while done < 50:
            roots = [(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(4)]
            if len({Fraction(a, b) for a, b in roots}) < 4:
                continue
            f = as_binary_form(_linear_form(*roots[0]) * _linear_form(*roots[1]))
            g = as_binary_form(_linear_form(*roots[2]) * _linear_form(*roots[3]))
            assert resultant(f, g) != Polynomial()
            done += 1
        # multiplicativity in the first argument
        done = 0
        while done < 30:
            fs = [rng.randint(-3, 3) for _ in range(3)]
            gs = [rng.randint(-3, 3) for _ in range(3)]
            hs = [rng.randint(-3, 3) for _ in range(2)]
            if not (any(fs) and any(gs) and any(hs)):
                continue
            x1 = Polynomial.variable(X1)
            x2 = Polynomial.variable(X2)
            f_poly = fs[0] * x2 ** 2 + fs[1] * x1 * x2 + fs[2] * x1 ** 2
            g_poly = gs[0] * x2 ** 2 + gs[1] * x1 * x2 + gs[2] * x1 ** 2
            h = as_binary_form(hs[0] * x2 + hs[1] * x1)
            if h.degree < 1:
                continue
            product = as_binary_form(f_poly * g_poly)
            f = as_binary_form(f_poly)
            g = as_binary_form(g_poly)
            if f.degree < 1 or g.degree < 1 or f.degree + g.degree != product.degree:
                continue
            assert resultant(product, h) == resultant(f, h) * resultant(g, h)
            done += 1


def test_criterion_09_line_point_duality():
    with criterion(9, "three collinear points' polylines concur at the line's dual"):
        rng = random.Random(9)
        done = 0
        while done < 100:
            m = rng.uniform(-4.0, 4.0)
            if abs(m - 1.0) < 0.1:
                continue
            b = rng.uniform(-4.0, 4.0)
            target = line_dual_point(m, b, 1.0)
            for _ in range(3):
                p1 = rng.uniform(-5.0, 5.0)
                (x0, y0), (x1v, y1) = point_to_polyline([p1, m * p1 + b], 1.0)
                slope = (y1 - y0) / (x1v - x0)
                assert abs(y0 + slope * (target[0] - x0) - target[1]) < 1e-9
            done += 1


def test_criterion_10_rendering():
    # The goldens move only on purpose, with the proof that each moved
    # file decodes to the previous segments (see test_cli.TestPinnedOutput).
    with criterion(10, "byte-identical plot goldens; grid-256 vertices |f| < 0.01"):
        circle = parse("x1^2 + x2^2 - 1")
        dual = dual_curve(ImplicitCurve(circle))
        scene_vp = Viewport(-3.0, 3.0, -3.0, 3.0)

        def build():
            scene = PlaneScene(scene_vp)
            scene.add_segments(trace_implicit(dual.g, scene_vp, 64), style="thick")
            return render_svg(scene)

        first, second = build(), build()
        assert first == second
        assert first == (GOLDEN_DIR / "circle_dual.svg").read_text(encoding="utf-8")

        import contextlib
        import io

        def run_plot():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli_main(["plot", "x1^2 + x2^2 - 1", "--grid", "64"])
            assert code == 0
            return buffer.getvalue()

        cli_first, cli_second = run_plot(), run_plot()
        assert cli_first == cli_second
        assert cli_first == (GOLDEN_DIR / "circle_plot.svg").read_text(encoding="utf-8")

        vertices = trace_implicit(circle, Viewport(-2.0, 2.0, -2.0, 2.0), 256)
        assert vertices
        for segment in vertices:
            for px, py in segment:
                assert abs(evaluate_float(circle, {X1: px, X2: py})) < 0.01
