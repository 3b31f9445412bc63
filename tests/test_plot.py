import math
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    cellwise_trace,
    dual_panel_misfits,
    evaluate_float,
    gradient,
    line_dual_point,
    nonzero_polynomials,
    polynomials,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pardual import plot
from pardual.dualize import ImplicitCurve, dual_curve, sample_curve
from pardual.plot import (
    MAX_GRID,
    PlaneScene,
    Viewport,
    _column_sign,
    _column_values,
    _power_ranges,
    clip_infinite_line,
    envelope_scene,
    render_svg,
    trace_implicit,
    two_panel_scene,
)
from pardual.polyparse import parse
from pardual.polyring import (
    X,
    X1,
    X2,
    Y,
    FloatForm,
    Polynomial,
    exponents,
    sorted_terms,
    variables,
)

GOLDEN_DIR = Path(__file__).parent / "goldens"

CIRCLE = parse("x1^2 + x2^2 - 1")
SEC32_DUAL = ("23*x^6 + 14*x^5*y + 37*x^4*y^2 - 14*x^3*y^3 + 27*x^2*y^4"
              " - 20*x^5 - 112*x^4*y + 40*x^3*y^2 - 48*x^2*y^3 + 74*x^4"
              " + 58*x^3*y + 14*x^2*y^2 + 12*x*y^3 - 86*x^3 - 14*x^2*y"
              " - 10*x*y^2 - 4*y^3 + 55*x^2 - 4*x*y + 4*y^2 - 18*x + 3")
VIEW2 = Viewport(-2.0, 2.0, -2.0, 2.0)


def circle_dual_scene():
    """The scene frozen as goldens/circle_dual.svg."""
    dual = dual_curve(ImplicitCurve(CIRCLE))
    scene = PlaneScene(Viewport(-3.0, 3.0, -3.0, 3.0))
    scene.add_segments(trace_implicit(dual.g, scene.viewport, 64), style="thick")
    return scene


# Segment table for marching squares: bit i set when corner i is negative,
# corners ordered BL, BR, TR, TL; edges are B, R, T, L.
_CASES = {
    0: [], 15: [],
    1: [("B", "L")], 14: [("B", "L")],
    2: [("B", "R")], 13: [("B", "R")],
    3: [("L", "R")], 12: [("L", "R")],
    4: [("R", "T")], 11: [("R", "T")],
    6: [("B", "T")], 9: [("B", "T")],
    7: [("L", "T")], 8: [("L", "T")],
}


def axis_terms(p, ax, ay):
    """p's terms in canonical order as (coeff, exponent of ax, exponent of ay)."""
    return [(coeff, *exponents(mono, (ax, ay))) for mono, coeff in sorted_terms(p)]


def grouped_column(p, ax, ay, xv, ys):
    """p at (xv, y) for each y in ys by trace_implicit's column rule, kept
    here as its reference: c * xv**a summed per y exponent b over the terms
    in canonical order from 0.0, then, from 0.0, one list pass c_b * y**b
    per nonzero c_b, b ascending."""
    terms = axis_terms(p, ax, ay)
    coeffs = [0.0] * (max((a + b for _, a, b in terms), default=0) + 1)
    for coeff, a, b in terms:
        coeffs[b] += float(coeff) * xv ** a
    values = [0.0] * len(ys)
    for b in range(len(coeffs)):
        if coeffs[b]:
            values = [v + coeffs[b] * yv ** b for v, yv in zip(values, ys)]
    return values


def reference_trace(p, ax, ay, vp, grid):
    """Marching squares over the full grid of grouped_column values, every
    cell scanned, with the 16-case table; saddle centers by evaluate_float."""
    xs = [vp.xmin + i * (vp.xmax - vp.xmin) / grid for i in range(grid + 1)]
    ys = [vp.ymin + j * (vp.ymax - vp.ymin) / grid for j in range(grid + 1)]
    values = [grouped_column(p, ax, ay, xv, ys) for xv in xs]

    def interp(x0, y0, v0, x1, y1, v1):
        t = v0 / (v0 - v1)
        return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    segments = []
    for i in range(grid):
        for j in range(grid):
            bl, br = values[i][j], values[i + 1][j]
            tr, tl = values[i + 1][j + 1], values[i][j + 1]
            index = (bl < 0) | ((br < 0) << 1) | ((tr < 0) << 2) | ((tl < 0) << 3)
            edges = {}
            if (bl < 0) != (br < 0):
                edges["B"] = interp(xs[i], ys[j], bl, xs[i + 1], ys[j], br)
            if (br < 0) != (tr < 0):
                edges["R"] = interp(xs[i + 1], ys[j], br, xs[i + 1], ys[j + 1], tr)
            if (tl < 0) != (tr < 0):
                edges["T"] = interp(xs[i], ys[j + 1], tl, xs[i + 1], ys[j + 1], tr)
            if (bl < 0) != (tl < 0):
                edges["L"] = interp(xs[i], ys[j], bl, xs[i], ys[j + 1], tl)
            if index in (5, 10):
                center = evaluate_float(p, {ax: 0.5 * (xs[i] + xs[i + 1]),
                                            ay: 0.5 * (ys[j] + ys[j + 1])})
                if index == 5:
                    pairs = [("L", "T"), ("B", "R")] if center < 0 else [("L", "B"), ("R", "T")]
                else:
                    pairs = [("B", "L"), ("R", "T")] if center < 0 else [("B", "R"), ("T", "L")]
            else:
                pairs = _CASES[index]
            segments.extend((edges[a], edges[b]) for a, b in pairs)
    return segments


def grid_nodes(lo, hi, grid):
    """The node coordinates trace_implicit marches, by its formula."""
    return [lo + k * (hi - lo) / grid for k in range(grid + 1)]


@st.composite
def trace_cases(draw):
    """(p, axes, viewport, grid): a random polynomial, or one that puts a
    saddle cell, a row or column of exact zeros at grid nodes, or a crossing
    of the top row or right column into the window.  Bounds are hundredths,
    off the dyadic grid, so that the node coordinates round."""
    axes = draw(st.sampled_from([(X1, X2), (X, Y)]))
    grid = draw(st.sampled_from([16, 17, 33, 64]))
    xmin, ymin, width, height = (draw(st.integers(lo, hi)) / 100
                                 for lo, hi in ((-350, 250), (-350, 250), (7, 600), (7, 600)))
    vp = Viewport(xmin, xmin + width, ymin, ymin + height)
    xs, ys = grid_nodes(vp.xmin, vp.xmax, grid), grid_nodes(vp.ymin, vp.ymax, grid)
    u, v = (Polynomial.variable(a) for a in axes)
    kind = draw(st.sampled_from(["random", "saddle", "zero column", "zero row", "top right"]))
    if kind == "random":
        p = draw(polynomials(variables=axes, max_terms=6))
    elif kind == "saddle":
        # a steep and a shallow line crossing inside a cell, off its nodes
        i, j = draw(st.integers(0, grid - 1)), draw(st.integers(0, grid - 1))
        s, t = (Fraction(draw(st.integers(1, 99)), 100) for _ in range(2))
        px = Fraction(xs[i]) + (Fraction(xs[i + 1]) - Fraction(xs[i])) * s
        py = Fraction(ys[j]) + (Fraction(ys[j + 1]) - Fraction(ys[j])) * t
        a, b = (Fraction(draw(st.integers(-3, 3)), 10) for _ in range(2))
        p = (u - px + (v - py) * a) * (v - py + (u - px) * b)
    elif kind in ("zero column", "zero row"):
        # exactly 0.0 at every node of one grid line: no bit of that mask
        # comes from it
        k = draw(st.integers(0, grid))
        line = u - Fraction(xs[k]) if kind == "zero column" else v - Fraction(ys[k])
        p = line * draw(nonzero_polynomials(variables=axes, max_terms=3, max_degree=2))
    else:
        # a circle about the top-right corner crosses the top row of cells
        # and the right column, whose masks use bit grid
        r = Fraction(draw(st.integers(1, 100)), 100) * Fraction(min(width, height))
        p = (u - Fraction(vp.xmax)) ** 2 + (v - Fraction(vp.ymax)) ** 2 - r * r
    assume(variables(p))
    return p, axes, vp, grid


@st.composite
def dyadic_trace_cases(draw):
    """(p, axes, viewport, grid): a small-integer conic or cubic on a window
    whose nodes are exact multiples of a power of two about the origin, so
    that node values are often exactly 0.0.  The curve is a sparse random
    one, or a product of two or three lines with small integer
    coefficients, whose crossings off the grid lines make saddle cells."""
    axes = draw(st.sampled_from([(X1, X2), (X, Y)]))
    grid = draw(st.integers(16, 64))
    step = 2.0 ** -draw(st.integers(0, 3))
    i0, j0 = (draw(st.integers(-grid, 0)) for _ in range(2))
    vp = Viewport(i0 * step, (i0 + grid) * step, j0 * step, (j0 + grid) * step)
    if draw(st.booleans()):
        p = draw(polynomials(variables=axes, max_terms=6, max_degree=draw(st.integers(2, 3)),
                             min_coeff=-3, max_coeff=3))
    else:
        u, v = (Polynomial.variable(a) for a in axes)
        p = Polynomial.constant(1)
        for _ in range(draw(st.integers(2, 3))):
            a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
            p = p * (a * u + b * v + c)
    assume(variables(p))
    return p, axes, vp, grid


# The windows are off the dyadic grid so that powers of the grid
# coordinates round; the nodal cubic meets a saddle cell.
REFERENCE_CASES = [
    ("x1^3 - x1^2 - x2^2 + x2 - 1", (X1, X2), Viewport(-2.9, 3.1, -3.1, 2.9)),
    ("x1^3 + x2^2 - 3*x1*x2", (X1, X2), Viewport(-1.9, 2.1, -1.9, 2.1)),
    (SEC32_DUAL, (X, Y), Viewport(-2.95, 3.05, -3.05, 2.95)),
]


# Curves whose columns have 1, 2, 3, 4 and 7 nonzero y powers besides
# y**0: trace_implicit applies them in list passes of up to three.
FUSED_CASES = [
    ("x2 - x1^2", (X1, X2), 1),
    ("x2^2 - x1", (X1, X2), 1),
    ("x2^3 + x1*x2 - 1", (X1, X2), 2),
    ("x2^3 - x1*x2^2 + x2 - x1^2 - 1", (X1, X2), 3),
    (SEC32_DUAL, (X, Y), 4),
    ("x2^7 - x1*x2^6 + x2^5 - 2*x2^4 + x1*x2^3 - x2^2 + 3*x2 - x1^2 + 1", (X1, X2), 7),
]


class TestTraceImplicit:
    @pytest.mark.parametrize("with_y0", [True, False])
    @pytest.mark.parametrize("text, axes, powers", FUSED_CASES)
    def test_fused_passes_match_reference(self, text, axes, powers, with_y0):
        # A column starts at its y**0 coefficient and takes the other
        # nonzero powers up to three per list pass, v + a*p + b*q + c*r.
        # Python adds left to right, so every node value, and with it every
        # segment, is bit for bit that of grouped_column's one pass per
        # power from 0.0.  Without a y**0 term the column starts at 0.0.
        ax, ay = axes
        p = parse(text)
        if not with_y0:
            p = Polynomial({mono: coeff for mono, coeff in sorted_terms(p)
                            if exponents(mono, (ay,)) != (0,)})
        vp = Viewport(-2.9, 3.1, -3.1, 2.9)
        form = FloatForm(p)
        lines = [form.line(ax, xv) for xv in grid_nodes(vp.xmin, vp.xmax, 64)]
        assert max(sum(map(bool, line[1:])) for line in lines) == powers
        assert any(line[0] for line in lines) == with_y0
        assert trace_implicit(p, vp, 64) == reference_trace(p, ax, ay, vp, 64)

    @pytest.mark.parametrize("text, axes, vp", REFERENCE_CASES)
    def test_matches_point_by_point_reference(self, text, axes, vp):
        # Exact float equality: the streamed columns evaluate bit-identically
        # to the grouped rule at every node.
        p = parse(text)
        assert trace_implicit(p, vp, 64) == reference_trace(p, *axes, vp, 64)

    @pytest.mark.parametrize("text, axes, vp", REFERENCE_CASES)
    def test_grouped_columns_near_exact(self, text, axes, vp):
        # Every grouped-rule value v at a float node (x, y) lies within
        # T * (T + d + 8) * 2**-53 * M of p's exact value there, for T terms,
        # total degree d and M the scale FloatForm.at(x, y) reads.  Each term
        # passes through at most T + d + 6 roundings of relative size
        # 2**-53: the coefficient, two products, x**a and y**b at two each,
        # T - 1 additions within its y power and d across them (adding the
        # first power to 0.0 is exact).  The terms sum to at most T * M in
        # absolute value; the extra 2 covers second-order terms and the
        # rounding of M itself.
        p = parse(text)
        ax, ay = axes
        grid = 64
        xs, ys = grid_nodes(vp.xmin, vp.xmax, grid), grid_nodes(vp.ymin, vp.ymax, grid)
        form = FloatForm(p)
        terms = axis_terms(p, ax, ay)
        bound = Fraction(len(terms) * (len(terms) + form.degree + 8), 2 ** 53)
        y_powers = [[Fraction(yv) ** b for b in range(form.degree + 1)] for yv in ys]
        for xv in xs:
            exact_x = Fraction(xv)
            exact_coeffs = [Fraction(0)] * (form.degree + 1)
            for coeff, a, b in terms:
                exact_coeffs[b] += coeff * exact_x ** a
            for yv, powers, value in zip(ys, y_powers, grouped_column(p, ax, ay, xv, ys)):
                exact = sum(c * power for c, power in zip(exact_coeffs, powers))
                assert abs(Fraction(value) - exact) <= bound * Fraction(form.at(xv, yv)[1])

    @settings(max_examples=80, deadline=None)
    @given(trace_cases())
    def test_masks_match_full_scan(self, case):
        # Marching only the cells the sign masks select gives the full
        # scan's segments, in its order, bit for bit.
        p, axes, vp, grid = case
        assert trace_implicit(p, vp, grid) == reference_trace(p, *axes, vp, grid)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(dyadic_trace_cases(), trace_cases()))
    def test_shared_crossings_match_cellwise(self, case):
        # Sharing each edge's crossing between its two cells gives the
        # segments of interpolating it once per cell, bit for bit.  Each
        # crossing is one object: one on an edge inside the grid serves
        # both cells of that edge, so a point strictly inside the outer
        # grid lines (not the window's bounds, which the top and right
        # nodes may miss by a rounding) ends exactly two segments.
        p, axes, vp, grid = case
        segments = trace_implicit(p, vp, grid)
        assert segments == cellwise_trace(p, vp, grid)
        xs, ys = grid_nodes(vp.xmin, vp.xmax, grid), grid_nodes(vp.ymin, vp.ymax, grid)
        uses = Counter(id(point) for segment in segments for point in segment)
        for segment in segments:
            for point in segment:
                if xs[0] < point[0] < xs[grid] and ys[0] < point[1] < ys[grid]:
                    assert uses[id(point)] == 2

    def test_saddle_and_grid_edge_cases(self):
        vp = Viewport(-2.95, 3.05, -3.05, 2.95)
        grid = 17
        xs, ys = grid_nodes(vp.xmin, vp.xmax, grid), grid_nodes(vp.ymin, vp.ymax, grid)
        u, v = Polynomial.variable(X1), Polynomial.variable(X2)
        px = (Fraction(xs[5]) + Fraction(xs[6])) / 2 + Fraction(1, 1000)
        py = (Fraction(ys[9]) + Fraction(ys[10])) / 2 - Fraction(1, 1000)
        cross = (u - px) * (v - py)
        corners = [evaluate_float(cross, {X1: x, X2: y})
                   for x, y in ((xs[5], ys[9]), (xs[6], ys[9]), (xs[6], ys[10]), (xs[5], ys[10]))]
        assert [c < 0 for c in corners] in ([True, False, True, False],
                                            [False, True, False, True])
        cases = [
            cross,
            (u - Fraction(xs[7])) * (v - Fraction(ys[3])),  # 0.0 on a node column and row
            u - Fraction(xs[grid]),                      # 0.0 on the right column
            v - Fraction(ys[grid]) + Fraction(1, 100),   # just under the top row
            u * u + v * v - 1,
        ]
        for p in cases:
            assert trace_implicit(p, vp, grid) == reference_trace(p, X1, X2, vp, grid)
        assert trace_implicit(cases[3], vp, grid)

    def test_every_cell_case(self):
        # The bilinear p through dyadic corner values of the unit cell
        # [7, 8]^2 gives that cell each of the 16 corner-sign patterns, and
        # each saddle both center signs and a zero center.  On [0, 16]^2 at
        # grid 16 the nodes and the center are integers and halves, so every
        # value is exact.
        vp = Viewport(0.0, 16.0, 0.0, 16.0)
        u, v = Polynomial.variable(X1) - 7, Polynomial.variable(X2) - 7
        corners = ((7.0, 7.0), (8.0, 7.0), (8.0, 8.0), (7.0, 8.0))  # BL, BR, TR, TL
        cases = [(index, (1, 2, 1, 2)) for index in range(16)]
        cases += [(saddle, magnitudes) for saddle in (5, 10)
                  for magnitudes in ((2, 1, 2, 1), (1, 1, 1, 1))]
        seen = set()
        for index, magnitudes in cases:
            bl, br, tr, tl = values = [Fraction(-m if index >> k & 1 else m, 2)
                                       for k, m in enumerate(magnitudes)]
            p = bl * (1 - u) * (1 - v) + br * u * (1 - v) + tr * u * v + tl * (1 - u) * v
            assert [evaluate_float(p, {X1: x, X2: y}) for x, y in corners] == values
            center = evaluate_float(p, {X1: 7.5, X2: 7.5})
            seen.add((index, center < 0))
            assert trace_implicit(p, vp, 16) == reference_trace(p, X1, X2, vp, 16)
        assert len(seen) == 18

    def test_circle_vertex_residuals(self):
        segments = trace_implicit(CIRCLE, VIEW2, 64)
        assert segments
        for segment in segments:
            for px, py in segment:
                assert abs(evaluate_float(CIRCLE, {X1: px, X2: py})) < 0.05

    def test_vertices_on_cell_edges(self):
        grid = 32
        segments = trace_implicit(CIRCLE, VIEW2, grid)
        step = 4.0 / grid
        for segment in segments:
            for px, py in segment:
                on_x_line = min(abs(((px + 2.0) / step) - round((px + 2.0) / step)), 1) < 1e-9
                on_y_line = min(abs(((py + 2.0) / step) - round((py + 2.0) / step)), 1) < 1e-9
                assert on_x_line or on_y_line

    def test_vertical_line(self):
        segments = trace_implicit(parse("x1"), VIEW2, 64)
        assert segments
        for segment in segments:
            for px, _ in segment:
                assert px == pytest.approx(0.0, abs=1e-12)

    def test_empty_locus(self):
        assert trace_implicit(parse("x1^2 + x2^2 + 1"), VIEW2, 32) == []

    def test_image_plane_variables(self):
        segments = trace_implicit(parse("x^2 + y^2 - 1"), VIEW2, 32)
        assert segments

    def test_mixed_variables_rejected(self):
        with pytest.raises(ValueError, match="mixes the"):
            trace_implicit(parse("x1 + y"), VIEW2, 32)

    @pytest.mark.parametrize("p", [Polynomial(), Polynomial.constant(-2)])
    def test_constant_rejected(self, p):
        # FloatForm takes a constant in (x1, x2); trace_implicit has no curve to draw
        with pytest.raises(ValueError, match="must depend on the"):
            trace_implicit(p, VIEW2, 32)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            trace_implicit(CIRCLE, VIEW2, 8)

    def test_finite_column_with_overflowing_sum_traced(self):
        # every value is finite though a column's sum overflows
        vp = Viewport(-9e153, 9e153, -9e153, 9e153)
        segments = trace_implicit(CIRCLE, vp, 16)
        assert segments == reference_trace(CIRCLE, X1, X2, vp, 16)
        assert segments

    @pytest.mark.parametrize("text", ["x1*x2", "-x1*x2", "x1*x2 - x1*x2^2"])
    def test_nonfinite_column_raises(self, text):
        # Every column is +inf throughout, -inf throughout, or NaN (inf +
        # -inf); only the first bytes 0x7f and 0xff mark such a value, and
        # each must send its column to the isfinite check.
        vp = Viewport(1e250, 2e250, 1e100, 2e100)
        with pytest.raises(OverflowError, match="grid column at x = 1e[+]250 is not finite"):
            trace_implicit(parse(text), vp, 16)

    @pytest.mark.parametrize("text", ["-x1*x2", "-x1*x2^2 - x2", "x2*(1/2 - x1)",
                                      "-x1^2*x2 - x1*x2^2 + x1"])
    @pytest.mark.parametrize("vp", [Viewport(-1.0, 1.0, -1.0, 1.0),
                                    Viewport(-0.5, 1.5, -0.5, 1.5),
                                    Viewport(0.0, 2.0, -1.0, 1.0)])
    def test_signed_zero_nodes(self, text, vp):
        # Node rows and columns at exactly 0.0 and 1/2 make negative
        # coefficients times 0.0, which are -0.0.  The mask reads IEEE sign
        # bits, so a node value of -0.0 would count as negative where the
        # reference's v < 0 does not; no node value is ever -0.0.
        grid = 16
        xs, ys = grid_nodes(vp.xmin, vp.xmax, grid), grid_nodes(vp.ymin, vp.ymax, grid)
        assert {0.0, 0.5} <= set(xs) and {0.0, 0.5} <= set(ys)
        p = parse(text)
        segments = trace_implicit(p, vp, grid)
        assert segments
        assert segments == reference_trace(p, X1, X2, vp, grid)

    @pytest.mark.parametrize("text, axis", [("x1 - 1/3", 0), ("x2 - 1/3", 1), ("1/3 - x2", 1)])
    def test_widest_mask(self, text, axis):
        # At MAX_GRID a column packs 2049 doubles.  The horizontal lines
        # flip sign once in every column, below the line for x2 - 1/3 and
        # above it, up to the top node's bit 2048, for 1/3 - x2; the
        # vertical line crosses the one column of cells around x1 = 1/3.
        segments = trace_implicit(parse(text), VIEW2, MAX_GRID)
        assert len(segments) == MAX_GRID
        for segment in segments:
            for point in segment:
                assert abs(point[axis] - 1 / 3) < 1e-12


@st.composite
def sign_columns(draw):
    """(c0s, coeffs, ys): columns c0 + sum(c_b * y**b) of degree 0 to 30 in
    y, one for each c0 in c0s, over grid nodes ys whose span does or does
    not contain 0, with coefficient magnitudes from 1e-30 to 1e30, every
    power or at most two of them nonzero.  One c0 is free; the others
    nearly cancel the least and the greatest node value of the other
    terms, the same few units of their scale S above and below 0, where a
    certificate that bounds the column too tightly names a sign that some
    node value does not have."""
    degree = draw(st.integers(0, 30))
    grid = draw(st.sampled_from([16, 17]))
    near, far = sorted(draw(st.integers(0, 300)) / 100 for _ in range(2))
    assume(near < far)
    y_lo, y_hi = draw(st.sampled_from([(-near, far), (-far, near), (near, far), (-far, -near)]))
    ys = grid_nodes(y_lo, y_hi, grid)
    scale = draw(st.integers(-27, 27))

    def coefficient():
        mantissa = draw(st.integers(1, 999)) / 100
        return draw(st.sampled_from([-1, 1])) * mantissa * 10.0 ** (scale + draw(st.integers(-3, 3)))

    if draw(st.booleans()):  # dense, or at most two powers, whose bounds are tight more often
        coeffs = [coefficient() if draw(st.booleans()) else 0.0 for _ in range(degree)]
    else:
        powers = draw(st.sets(st.integers(1, max(degree, 1)), max_size=2)) if degree else set()
        coeffs = [coefficient() if b in powers else 0.0 for b in range(1, degree + 1)]
    y_powers = [[yv ** b for yv in ys] for b in range(1, degree + 1)]
    rest = _column_values(0.0, coeffs, ys, y_powers)
    size = sum(abs(c) * max(abs(yv) for yv in ys) ** b for b, c in enumerate(coeffs, 1))
    offset = draw(st.integers(1, 2 ** 12)) * 2.0 ** -draw(st.integers(40, 56)) * size
    c0s = [coefficient()] + [sign * offset - extreme for extreme in (min(rest), max(rest))
                             for sign in (1, -1)]
    return [c0 or 0.0 for c0 in c0s], coeffs, ys


# Curves, windows and grids on which the certificate must move no segment:
# plot-grid's three curves and their duals at the CLI defaults, the duals of
# a seeded dense cubic (the first of test_dualize.dense_text(random.Random(4),
# 3)) and of the dense quartic whose plot CI pins, an off-centre window, a
# window the curve misses and a curve a few cells across.
CERTIFIED_CASES = [
    ("x1^2 + x2^2 - 1", False, (-3.0, 3.0, -3.0, 3.0), 256),
    ("x1^2 + x2^2 - 1", True, (-3.0, 3.0, -3.0, 3.0), 256),
    ("x1^2*x2 - 1", False, (-3.0, 3.0, -3.0, 3.0), 256),
    ("x1^2*x2 - 1", True, (-3.0, 3.0, -3.0, 3.0), 256),
    ("x1^3 - x1^2 - x2^2 + x2 - 1", False, (-3.0, 3.0, -3.0, 3.0), 256),
    ("x1^3 - x1^2 - x2^2 + x2 - 1", True, (-3.0, 3.0, -3.0, 3.0), 256),
    ("- 2*x1^3 + 1*x1^2*x2^1 - 6*x1^1*x2^2 + 4*x2^3 + 7*x1^2 - 5*x1^1*x2^1 - 7*x2^2"
     " - 7*x1^1 - 9*x2^1 + 4", True, (-3.0, 3.0, -3.0, 3.0), 128),
    ("-9*x1^4 + 5*x1^3*x2 - 9*x1^2*x2^2 - 3*x1*x2^3 + 7*x2^4 + 4*x1^3 + 7*x1^2*x2"
     " + 4*x1*x2^2 - 6*x2^3 - 6*x1^2 + 7*x1*x2 - x2^2 + 6*x1 - 7*x2 - 5",
     True, (-3.0, 3.0, -3.0, 3.0), 128),
    ("x1^2 + x2^2 - 1/16", False, (-1.0, 5.0, -2.0, 4.0), 256),
    ("x1^2 + x2^2 - 1", False, (2.0, 3.0, 2.0, 3.0), 64),
    ("x1^2 + x2^2 - 1/400", False, (-3.0, 3.0, -3.0, 3.0), 256),
]


class TestColumnCertificate:
    @settings(max_examples=150, deadline=None)
    @given(sign_columns())
    def test_certified_sign_holds_at_every_node(self, case):
        # Whenever _column_sign names a sign, every value of the column,
        # from trace_implicit's own passes, has it: the mask it stands for
        # is the mask of the values.
        c0s, coeffs, ys = case
        y_powers = [[yv ** b for yv in ys] for b in range(1, len(coeffs) + 1)]
        ranges = _power_ranges(min(ys), max(ys), len(coeffs))
        for c0 in c0s:
            sign = _column_sign(c0, coeffs, ranges)
            values = _column_values(c0, coeffs, ys, y_powers)
            if sign > 0:
                assert not any(v < 0 for v in values)
            elif sign < 0:
                assert all(v < 0 for v in values)

    def test_near_miss_not_certified(self):
        # c0 + y**2 over [-1, 1], with y = 0.0 a node: the least node value
        # is c0 itself.  The margin is 2*gamma*S = 48 * 2**-53 * (1 + |c0|),
        # so c0 = 2**-50 is positive but inside it and certifies nothing,
        # and 2**-47 is outside it; likewise for -c0 - y**2.  The bounds are
        # summed as the passes sum, so with a margin of 0 this column would
        # certify as well, soundly here; the margin is what keeps the
        # certificate sound where pow rounds a node's y**b off the ends'.
        ys = grid_nodes(-1.0, 1.0, 16)
        ranges = _power_ranges(min(ys), max(ys), 2)
        for c0, c2, sign in ((2.0 ** -50, 1.0, 0), (-2.0 ** -50, -1.0, 0),
                             (2.0 ** -47, 1.0, 1), (-2.0 ** -47, -1.0, -1)):
            values = _column_values(c0, [0.0, c2], ys, [ys, [yv ** 2 for yv in ys]])
            assert min(map(abs, values)) == abs(c0)
            assert _column_sign(c0, [0.0, c2], ranges) == sign

    def test_huge_scale_not_certified(self):
        # A column with S of 1e300 or more, inf or NaN names no sign, so
        # trace_implicit evaluates it and an overflowing value still raises.
        ranges = _power_ranges(-1.0, 1.0, 1)
        assert _column_sign(9e299, [0.0], ranges) == 1
        assert _column_sign(-9e299, [0.0], ranges) == -1
        for c0, c1 in ((1e300, 0.0), (-1e300, 0.0), (1.0, math.inf), (-1.0, -math.inf),
                       (1.0, math.nan), (math.inf, 1.0), (math.nan, 0.0)):
            assert _column_sign(c0, [c1], ranges) == 0

    def test_certificate_moves_no_segment(self, monkeypatch):
        # The certified columns' masks are those of their values, and their
        # values, computed when a crossed cell reads them, are those of
        # evaluating every column: the segments match, bit for bit, those
        # traced with a certificate that certifies nothing.  The circle's
        # counts pin the certificate firing: 172 of its 257 columns lie at
        # |x| > 1, and 81 of its dual's certify; Fig. 9's 49 certified
        # negative take the mask with bit grid set.
        real = _column_sign
        counts = []
        for text, dual, window, grid in CERTIFIED_CASES:
            p = parse(text)
            if dual:
                p = dual_curve(ImplicitCurve(p)).g
            vp = Viewport(*window)
            signs = Counter()

            def counting(*args):
                sign = real(*args)
                signs[sign] += 1
                return sign

            monkeypatch.setattr(plot, "_column_sign", counting)
            certified = trace_implicit(p, vp, grid)
            monkeypatch.setattr(plot, "_column_sign", lambda *args: 0)
            assert certified == trace_implicit(p, vp, grid)
            counts.append((signs[1], signs[-1], len(certified)))
        assert counts[0][:2] == (172, 0) and counts[1][:2] == (81, 0)
        assert counts[2][:2] == (0, 49)
        assert counts[9] == (65, 0, 0)  # the missed window: every column, no segment


class TestClip:
    def test_inside(self):
        segment = clip_infinite_line((0.0, 0.0), (1.0, 1.0), VIEW2)
        assert segment == ((-2.0, -2.0), (2.0, 2.0))

    def test_outside(self):
        assert clip_infinite_line((0.0, 5.0), (1.0, 5.0), Viewport(-1, 1, -1, 1)) is None

    def test_vertical(self):
        segment = clip_infinite_line((0.5, 0.0), (0.5, 1.0), VIEW2)
        assert segment == ((0.5, -2.0), (0.5, 2.0))


class TestEnvelopeScene:
    def test_circle_cardinality(self):
        scene = envelope_scene(ImplicitCurve(CIRCLE), 200, VIEW2)
        assert len(scene.layers) == 1
        assert len(scene.layers[0].data) == 200

    def test_minimum_two(self):
        scene = envelope_scene(ImplicitCurve(CIRCLE), 2, VIEW2)
        assert len(scene.layers[0].data) == 2
        with pytest.raises(ValueError):
            envelope_scene(ImplicitCurve(CIRCLE), 1, VIEW2)

    def test_spacing_must_be_positive(self):
        # checked before sampling, so also for a curve with no point in view
        for curve in (CIRCLE, parse("x1^2 + x2^2 + 1")):
            for spacing in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="spacing"):
                    envelope_scene(ImplicitCurve(curve), 8, VIEW2, spacing=spacing)

    def test_envelope_touches_dual(self):
        # every tangent's dual point lies on the sample's polyline extension
        # and within grid resolution of the traced dual curve
        grid = 64
        curve = ImplicitCurve(CIRCLE)
        vp = Viewport(-3.0, 3.0, -3.0, 3.0)
        dual = dual_curve(curve)
        traced = trace_implicit(dual.g, vp, grid)
        for x1v, x2v in sample_curve(curve, vp.window(), 10):
            g1, g2 = gradient(curve.f, (x1v, x2v))
            if abs(g2) < 1e-9:
                continue
            m = -g1 / g2
            if abs(1.0 - m) < 1e-6:
                continue
            b = x2v - m * x1v
            target = line_dual_point(m, b, 1.0)
            # the envelope line through (0, x1) and (1, x2) passes through it
            line_y = x1v + (x2v - x1v) * target[0]
            assert abs(line_y - target[1]) < 1e-9
            if not (vp.xmin <= target[0] <= vp.xmax and vp.ymin <= target[1] <= vp.ymax):
                continue
            best = min(_point_segment_distance(target, seg) for seg in traced)
            assert best < 2.0 / grid * (vp.xmax - vp.xmin)


class TestDualPanelOracle:
    """The dual panel as plot draws it (g traced at grid 256 over -3..3)
    against the images of the source's points (helpers.dual_panel_misfits):
    (spurious segments, missed images)."""

    # bench/workloads.py's dense_curve(random.Random(1), 4), CI's pinned quartic
    DENSE_QUARTIC = ("-9*x1^4 + 5*x1^3*x2 - 9*x1^2*x2^2 - 3*x1*x2^3 + 7*x2^4 + 4*x1^3"
                     " + 7*x1^2*x2 + 4*x1*x2^2 - 6*x2^3 - 6*x1^2 + 7*x1*x2 - x2^2 + 6*x1"
                     " - 7*x2 - 5")

    @pytest.mark.parametrize("source", ["x1^2 + x2^2 - 1", DENSE_QUARTIC],
                             ids=["circle", "dense-quartic"])
    def test_neither_spurious_nor_missed(self, source):
        assert dual_panel_misfits(parse(source)) == (0, 0)

    def test_sec32_no_spurious_segment(self):
        # its missed images are not counted: they sit at the cusp tip the grid
        # cuts off, the image of the real flex (1.9735, -1.244) at (0.3107, 0.9737)
        spurious, _ = dual_panel_misfits(parse("x1^3 - x1^2 - x2^2 + x2 - 1"))
        assert spurious == 0

    def test_extraneous_line_is_spurious(self):
        # Fig. 9's dual carries the factor x^3, and the line x = 0 it draws
        # is no image of the curve's points
        spurious, _ = dual_panel_misfits(parse("x1^2*x2 - 1"))
        assert spurious > 0


def _point_segment_distance(point, segment):
    (ax, ay), (bx, by) = segment
    px, py = point
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length_sq))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def decode_path(d):
    """The segments of a path of M and L commands, as printed strings: each
    L draws from the pen, which M moves and L leaves at its point."""
    tokens = d.split()
    assert len(tokens) % 3 == 0 and tokens[:1] in ([], ["M"])
    segments = []
    for k in range(0, len(tokens), 3):
        command, x, y = tokens[k:k + 3]
        assert command in ("M", "L")
        if command == "L":
            segments.append((pen, (x, y)))
        pen = (x, y)
    return segments


def formatted_segments(scene, segments, dx=0.0):
    """segments shifted by dx and mapped to the scene's pixels, printed to
    three decimals, as render_svg writes a segment's two ends."""
    vp = scene.viewport
    sx = vp.width_px / (vp.xmax - vp.xmin)
    sy = vp.height_px / (vp.ymax - vp.ymin)

    def to_px(point):
        x, y = point
        if dx:
            x += dx
        return (f"{(x - vp.xmin) * sx:.3f}", f"{(vp.ymax - y) * sy:.3f}")

    return [(to_px(a), to_px(b)) for a, b in segments]


def rendered_paths(scene):
    ns = "{http://www.w3.org/2000/svg}"
    return [(el.get("class"), el.get("d"))
            for el in ET.fromstring(render_svg(scene)).iter(f"{ns}path")]


def undirected(segments):
    """segments as a multiset in which (a, b) and (b, a) are one segment."""
    return Counter(tuple(sorted(segment)) for segment in segments)


def point_graph(segments):
    """(degree, components) of the multigraph whose vertices are the printed
    points and whose edges are segments: degree counts segment ends at a
    point (a zero-length segment adds two), components lists each connected
    component's points."""
    degree = Counter(point for segment in segments for point in segment)
    parent = {point: point for point in degree}

    def root(point):
        while parent[point] != point:
            parent[point] = parent[parent[point]]
            point = parent[point]
        return point

    for a, b in segments:
        parent[root(a)] = root(b)
    components = {}
    for point in degree:
        components.setdefault(root(point), []).append(point)
    return degree, list(components.values())


def chain_count(segments):
    """Subpaths render_svg draws for segments printed so: every chain ends
    twice at a point where other than two segment ends meet, and a
    component with no such point is one closed chain."""
    degree, components = point_graph(segments)
    ends = sum(d for d in degree.values() if d != 2)
    return ends // 2 + sum(all(degree[point] == 2 for point in component)
                           for component in components)


# Lattice coordinates for segment soups: the signed zeros print apart where
# a window edge is 0.0, and 1.0 + 1e-9 is another float that prints as 1.0.
SOUP_COORDS = [-0.0, 0.0, 0.5, 1.0, 1.0 + 1e-9, 1.5]
SOUP_VIEWPORTS = [Viewport(0.0, 1.5, 0.0, 1.5, 150, 150),
                  Viewport(-1.0, 2.0, -1.5, -0.0, 300, 150)]


@st.composite
def segment_soups(draw):
    """(viewport, segments, dx): segments on a small lattice, so points of
    degree 3 and 4 are common, with zero-length segments, a closed loop,
    duplicated segments and a shuffled order."""
    points = st.tuples(st.sampled_from(SOUP_COORDS), st.sampled_from(SOUP_COORDS))
    segments = draw(st.lists(st.tuples(points, points), max_size=12))
    loop = draw(st.lists(points, max_size=5))
    if len(loop) >= 2:
        segments += list(zip(loop, loop[1:] + loop[:1]))
    if segments:
        segments += draw(st.lists(st.sampled_from(segments), max_size=3))
    segments = draw(st.permutations(segments))
    return (draw(st.sampled_from(SOUP_VIEWPORTS)), segments,
            draw(st.sampled_from([0.0, 0.25, -1.0])))


class TestRenderSvg:
    @pytest.mark.parametrize("text", ["x1^2 + x2^2 - 1", "x1^2*x2 - 1",
                                      "x1^3 - x1^2 - x2^2 + x2 - 1"])
    def test_subpaths_round_trip(self, text):
        # Decoding each path gives back its layer's segments as printed, as
        # an undirected multiset: chaining drops no segment and invents
        # none, though it may draw one end to start.  The plot scene at
        # grid 64 has the automatic axes, the two panels and the dual
        # panel's axis layer; every layer, the traced curves included, is
        # one subpath per connected component.
        f = parse(text)
        panel = Viewport(-3.0, 3.0, -3.0, 3.0)
        scene = two_panel_scene(panel, trace_implicit(f, panel, 64),
                                trace_implicit(dual_curve(ImplicitCurve(f)).g, panel, 64))
        paths = rendered_paths(scene)
        vp = scene.viewport
        automatic = [((0.0, vp.ymax), (0.0, vp.ymin)), ((vp.xmin, 0.0), (vp.xmax, 0.0))]
        assert [style for style, _ in paths] == ["axis", "thin", "thick", "axis"]
        expected = [formatted_segments(scene, automatic)]
        expected += [formatted_segments(scene, layer.data, layer.dx) for layer in scene.layers]
        for (_, d), printed in zip(paths, expected):
            assert undirected(decode_path(d)) == undirected(printed)
            assert d.count("M") == len(point_graph(printed)[1])
        assert sum(d.count("M") for _, d in paths) < sum(map(len, expected))

    @settings(max_examples=60)
    @given(segment_soups())
    def test_chained_soup_round_trip(self, soup):
        # Any segments: the path decodes to them as printed (undirected
        # multiset), the bytes do not vary, and the subpaths are the chains
        # between points where other than two segment ends meet.
        vp, segments, dx = soup
        scene = PlaneScene(vp)
        scene.add_segments(segments, style="thin", dx=dx)
        svg = render_svg(scene)
        [d] = [d for style, d in rendered_paths(scene) if style == "thin"]
        printed = formatted_segments(scene, segments, dx)
        assert undirected(decode_path(d)) == undirected(printed)
        assert d.count("M") == chain_count(printed)
        assert render_svg(scene) == svg

    @pytest.mark.parametrize("dx", [0.0, 0.25])
    @pytest.mark.parametrize("vp", SOUP_VIEWPORTS)
    def test_each_vertex_object_printed_once(self, vp, dx):
        # A vertex is printed once per object, not per value: the signed
        # zeros are equal but print apart where a window edge is 0.0.  A
        # layer of shared objects, equal-valued distinct objects and signed
        # zeros prints the bytes of the same layer with every vertex a
        # distinct object, and every vertex as formatted one by one.
        shared = tuple([0.5, 1.0])
        segments = [((-0.0, -0.0), shared), (shared, tuple([0.5, 1.0])),
                    (tuple([0.5, 1.0]), (0.0, 0.0)), ((0.0, -0.0), (-0.0, 0.0)),
                    ((-0.0, 0.0), (1.5, 1.5)), (shared, (1.5, 1.5))]
        scene = PlaneScene(vp)
        scene.add_segments(segments, dx=dx)
        copies = PlaneScene(vp)
        copies.add_segments([tuple(tuple([x, y]) for x, y in segment) for segment in segments],
                            dx=dx)
        assert render_svg(scene) == render_svg(copies)
        [d] = [d for style, d in rendered_paths(scene) if style == "thin"]
        assert undirected(decode_path(d)) == undirected(formatted_segments(scene, segments, dx))

    def test_gap_starts_new_subpath(self):
        # One unit is one pixel: an end and a start 0.001 px apart print
        # differently and start a new subpath; 0.0004 px apart they print
        # alike and the subpath continues.
        scene = PlaneScene(Viewport(0.0, 100.0, 0.0, 100.0, 100, 100))
        segments = [((10.0, 10.0), (20.0, 20.0)), ((20.0, 20.0), (30.0, 10.0)),
                    ((30.001, 10.0), (40.0, 40.0)), ((40.0004, 40.0), (50.0, 50.0))]
        scene.add_segments(segments, style="thin")
        [(_, d)] = [path for path in rendered_paths(scene) if path[0] == "thin"]
        assert d == ("M 10.000 90.000 L 20.000 80.000 L 30.000 90.000"
                     " M 30.001 90.000 L 40.000 60.000 L 50.000 50.000")
        assert decode_path(d) == formatted_segments(scene, segments)

    def test_empty_scene_valid(self):
        svg = render_svg(PlaneScene(VIEW2))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "rect" in svg and "axis" in svg

    def test_deterministic(self):
        scene = circle_dual_scene()
        assert render_svg(scene) == render_svg(scene)

    def test_one_path_per_layer(self):
        scene = PlaneScene(VIEW2)
        scene.add_segments([((0.0, 0.0), (1.0, 1.0))], style="thin")
        scene.add_segments([((0.5, 0.5), (0.6, 0.6))], style="points")
        scene.add_segments([((0.0, 1.0), (1.0, 0.0)), ((1.0, 0.0), (2.0, 1.0))], style="thick")
        root = ET.fromstring(render_svg(scene))
        ns = "{http://www.w3.org/2000/svg}"
        paths = [el.get("class") for el in root.iter(f"{ns}path")]
        assert [c for c in paths if c != "axis"] == ["thin", "points", "thick"]

    def test_well_formed_xml(self):
        ET.fromstring(render_svg(circle_dual_scene()))

    def test_y_axis_flipped(self):
        scene = PlaneScene(Viewport(0.0, 1.0, 0.0, 1.0, 100, 100))
        scene.add_segments([((0.0, 1.0), (1.0, 0.0))], style="thin")
        svg = render_svg(scene)
        # world (0, 1) is the top-left corner in pixels, (1, 0) the bottom-right
        assert 'class="thin" d="M 0.000 0.000 L 100.000 100.000"' in svg

    def test_nonfinite_rejected(self):
        scene = PlaneScene(VIEW2)
        with pytest.raises(ValueError):
            scene.add_segments([((math.inf, 0.0), (0.0, 0.0))])
        with pytest.raises(ValueError):
            scene.add_segments([((0.0, 0.0), (0.0, math.nan))])

    def test_golden_fixture(self):
        fixture = GOLDEN_DIR / "circle_dual.svg"
        assert render_svg(circle_dual_scene()) == fixture.read_text(encoding="utf-8")
