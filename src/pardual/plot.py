"""Deterministic SVG rendering of curves, duals and tangent-line envelopes.

Implicit curves are traced with marching squares (center-sampled saddle
disambiguation); the grid is evaluated column by column through one
compiled FloatForm, so only two adjacent columns are held at a time.
Scenes are ordered layers of segments with abstract style tokens;
render_svg emits byte-stable SVG 1.1 with the y-axis flipped to
mathematical orientation and all coordinates printed to three decimals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dualize import DEFAULT_SPACING, ImplicitCurve, sample_curve
from .polyring import X, X1, X2, Y, FloatForm, Polynomial, variables

Point = tuple[float, float]
Segment = tuple[Point, Point]


@dataclass(frozen=True)
class Viewport:
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    width_px: int = 480
    height_px: int = 480

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("viewport must have positive extent")
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("pixel dimensions must be positive")

    def window(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.xmax, self.ymin, self.ymax)


@dataclass
class _Layer:
    data: list[Segment]
    style: str


@dataclass
class PlaneScene:
    viewport: Viewport
    layers: list[_Layer] = field(default_factory=list)

    def add_segments(self, segments: list[Segment], style: str = "thin") -> None:
        for segment in segments:
            for px, py in segment:
                if not (math.isfinite(px) and math.isfinite(py)):
                    raise ValueError("scene coordinates must be finite")
        self.layers.append(_Layer(list(segments), style))


def _axes_pair(p: Polynomial) -> tuple[int, int]:
    used = variables(p)
    if used and used <= {X1, X2}:
        return X1, X2
    if used and used <= {X, Y}:
        return X, Y
    raise ValueError("polynomial must depend on the (x1, x2) or (x, y) pair")


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


def trace_implicit(p: Polynomial, vp: Viewport, grid: int = 64) -> list[Segment]:
    """March a grid x grid cell mesh over the viewport and return the
    zero-set segments of p (empty when the curve misses the window).

    p is compiled once; the y**b powers are taken once per grid row and the
    restriction [(c*x**a, b), ...] once per grid column, and the cells are
    marched between two adjacent columns, so the full grid of values is
    never held.  Every value is bit-identical to evaluate_float's.
    """
    if grid < 16:
        raise ValueError("grid must be at least 16")
    ax, ay = _axes_pair(p)
    form = FloatForm(p, ax, ay)
    xs = [vp.xmin + i * (vp.xmax - vp.xmin) / grid for i in range(grid + 1)]
    ys = [vp.ymin + j * (vp.ymax - vp.ymin) / grid for j in range(grid + 1)]
    y_powers = [[yv ** b for yv in ys] for b in range(form.degree + 1)]

    def column(xv: float) -> list[float]:
        values = [0.0] * len(ys)
        for coeff, b in form.restrict(ax, xv):
            values = [v + coeff * power for v, power in zip(values, y_powers[b])]
        return values

    def interp(x0, y0, v0, x1, y1, v1) -> Point:
        t = v0 / (v0 - v1)
        return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    segments: list[Segment] = []
    right = column(xs[0])
    for i in range(grid):
        left, right = right, column(xs[i + 1])
        for j in range(grid):
            bl = left[j]
            br = right[j]
            tr = right[j + 1]
            tl = left[j + 1]
            index = ((bl < 0) | ((br < 0) << 1) | ((tr < 0) << 2) | ((tl < 0) << 3))
            if index in (0, 15):
                continue
            edge_points = {}
            if (bl < 0) != (br < 0):
                edge_points["B"] = interp(xs[i], ys[j], bl, xs[i + 1], ys[j], br)
            if (br < 0) != (tr < 0):
                edge_points["R"] = interp(xs[i + 1], ys[j], br, xs[i + 1], ys[j + 1], tr)
            if (tl < 0) != (tr < 0):
                edge_points["T"] = interp(xs[i], ys[j + 1], tl, xs[i + 1], ys[j + 1], tr)
            if (bl < 0) != (tl < 0):
                edge_points["L"] = interp(xs[i], ys[j], bl, xs[i], ys[j + 1], tl)
            if index in (5, 10):
                center = form(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
                if index == 5:
                    pairs = [("L", "T"), ("B", "R")] if center < 0 else [("L", "B"), ("R", "T")]
                else:
                    pairs = [("B", "L"), ("R", "T")] if center < 0 else [("B", "R"), ("T", "L")]
            else:
                pairs = _CASES[index]
            for a, b in pairs:
                segments.append((edge_points[a], edge_points[b]))
    return segments


def clip_infinite_line(a: Point, b: Point, vp: Viewport) -> Segment | None:
    """Clip the full line through a and b to the viewport (Liang-Barsky)."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    if dx == 0 and dy == 0:
        return None
    t_lo = -math.inf
    t_hi = math.inf
    for origin, delta, lo, hi in ((a[0], dx, vp.xmin, vp.xmax),
                                  (a[1], dy, vp.ymin, vp.ymax)):
        if delta == 0:
            if not lo <= origin <= hi:
                return None
            continue
        t1 = (lo - origin) / delta
        t2 = (hi - origin) / delta
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo = max(t_lo, t1)
        t_hi = min(t_hi, t2)
    if t_lo >= t_hi:
        return None
    return ((a[0] + t_lo * dx, a[1] + t_lo * dy),
            (a[0] + t_hi * dx, a[1] + t_hi * dy))


def envelope_scene(curve: ImplicitCurve, sample_count: int, vp: Viewport,
                   spacing: float = DEFAULT_SPACING) -> PlaneScene:
    """The over-plotting picture: every sampled curve point drawn as its
    dual line (the full line through (0, x1) and (spacing, x2), clipped);
    together the lines envelope the dual curve."""
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    if not 0 < spacing < math.inf:
        raise ValueError("axis spacing must be positive and finite")
    samples = sample_curve(curve, vp.window(), sample_count)
    segments = []
    for x1v, x2v in samples.points:
        clipped = clip_infinite_line((0.0, x1v), (spacing, x2v), vp)
        if clipped is not None:
            segments.append(clipped)
    scene = PlaneScene(vp)
    scene.add_segments(segments, style="thin")
    return scene


# Every SVG embeds this sheet, the goldens included, so it keeps the
# .points class that no layer uses any more: its bytes must not change.
_STYLESHEET = (
    ".bg{fill:#ffffff;stroke:none}"
    ".frame{fill:none;stroke:#cccccc;stroke-width:1}"
    ".axis{fill:none;stroke:#999999;stroke-width:1}"
    ".thin{fill:none;stroke:#1f77b4;stroke-width:1}"
    ".thick{fill:none;stroke:#d62728;stroke-width:2}"
    ".points{fill:none;stroke:#2ca02c;stroke-width:1}"
)


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_svg(scene: PlaneScene) -> str:
    """Standalone SVG 1.1 text; identical scenes produce identical bytes."""
    vp = scene.viewport
    sx = vp.width_px / (vp.xmax - vp.xmin)
    sy = vp.height_px / (vp.ymax - vp.ymin)

    def to_px(point: Point) -> tuple[float, float]:
        return ((point[0] - vp.xmin) * sx, (vp.ymax - point[1]) * sy)

    lines = [
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{vp.width_px}" height="{vp.height_px}" '
        f'viewBox="0 0 {vp.width_px} {vp.height_px}">',
        f"<style>{_STYLESHEET}</style>",
        f'<rect class="bg" x="0" y="0" width="{vp.width_px}" height="{vp.height_px}"/>',
        f'<rect class="frame" x="0.5" y="0.5" '
        f'width="{vp.width_px - 1}" height="{vp.height_px - 1}"/>',
    ]
    axis_parts = []
    if vp.xmin <= 0 <= vp.xmax:
        top = to_px((0.0, vp.ymax))
        bottom = to_px((0.0, vp.ymin))
        axis_parts.append(f"M {_fmt(top[0])} {_fmt(top[1])} L {_fmt(bottom[0])} {_fmt(bottom[1])}")
    if vp.ymin <= 0 <= vp.ymax:
        left = to_px((vp.xmin, 0.0))
        right = to_px((vp.xmax, 0.0))
        axis_parts.append(f"M {_fmt(left[0])} {_fmt(left[1])} L {_fmt(right[0])} {_fmt(right[1])}")
    if axis_parts:
        lines.append(f'<path class="axis" d="{" ".join(axis_parts)}"/>')

    for layer in scene.layers:
        parts = []
        for a, b in layer.data:
            pa, pb = to_px(a), to_px(b)
            parts.append(f"M {_fmt(pa[0])} {_fmt(pa[1])} L {_fmt(pb[0])} {_fmt(pb[1])}")
        lines.append(f'<path class="{layer.style}" d="{" ".join(parts)}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
