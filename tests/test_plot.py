import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from pardual.dualize import ImplicitCurve, dual_curve, line_dual_point, sample_curve
from pardual.plot import (
    _CASES,
    PlaneScene,
    Viewport,
    clip_infinite_line,
    envelope_scene,
    render_svg,
    trace_implicit,
)
from pardual.polyparse import parse
from pardual.polyring import X, X1, X2, Y, evaluate_float

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


def reference_trace(p, ax, ay, vp, grid):
    """Marching squares over the full grid of evaluate_float values, as the
    trace was computed before it streamed columns through a FloatForm."""
    xs = [vp.xmin + i * (vp.xmax - vp.xmin) / grid for i in range(grid + 1)]
    ys = [vp.ymin + j * (vp.ymax - vp.ymin) / grid for j in range(grid + 1)]
    values = [[evaluate_float(p, {ax: xv, ay: yv}) for yv in ys] for xv in xs]

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


class TestTraceImplicit:
    @pytest.mark.parametrize("text, axes, vp", [
        ("x1^3 - x1^2 - x2^2 + x2 - 1", (X1, X2), Viewport(-2.9, 3.1, -3.1, 2.9)),
        ("x1^3 + x2^2 - 3*x1*x2", (X1, X2), Viewport(-1.9, 2.1, -1.9, 2.1)),
        (SEC32_DUAL, (X, Y), Viewport(-2.95, 3.05, -3.05, 2.95)),
    ])
    def test_matches_point_by_point_reference(self, text, axes, vp):
        # Exact float equality: the streamed columns evaluate bit-identically.
        # The windows are off the dyadic grid so that powers of the grid
        # coordinates round; the nodal cubic meets a saddle cell.
        p = parse(text)
        assert trace_implicit(p, vp, 64) == reference_trace(p, *axes, vp, 64)

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
        with pytest.raises(ValueError):
            trace_implicit(parse("x1 + y"), VIEW2, 32)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            trace_implicit(CIRCLE, VIEW2, 8)


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
        for spacing in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                envelope_scene(ImplicitCurve(CIRCLE), 8, VIEW2, spacing=spacing)

    def test_envelope_touches_dual(self):
        # every tangent's dual point lies on the sample's polyline extension
        # and within grid resolution of the traced dual curve
        grid = 64
        curve = ImplicitCurve(CIRCLE)
        vp = Viewport(-3.0, 3.0, -3.0, 3.0)
        dual = dual_curve(curve)
        traced = trace_implicit(dual.g, vp, grid)
        samples = sample_curve(curve, vp.window(), 10)
        for (x1v, x2v), (g1, g2) in zip(samples.points, samples.gradients):
            if abs(g2) < 1e-9:
                continue
            m = -g1 / g2
            if abs(1.0 - m) < 1e-6:
                continue
            b = x2v - m * x1v
            target = line_dual_point(m, b, 1.0)
            # the envelope line through (0, x1) and (1, x2) passes through it
            line_y = x1v + (x2v - x1v) * target.x
            assert abs(line_y - target.y) < 1e-9
            if not (vp.xmin <= target.x <= vp.xmax and vp.ymin <= target.y <= vp.ymax):
                continue
            best = min(_point_segment_distance(target, seg) for seg in traced)
            assert best < 2.0 / grid * (vp.xmax - vp.xmin)


def _point_segment_distance(point, segment):
    (ax, ay), (bx, by) = segment
    px, py = point
    dx, dy = bx - ax, by - ay
    length_sq = dx * dx + dy * dy
    if length_sq == 0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / length_sq))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


class TestRenderSvg:
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
