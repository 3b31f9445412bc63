"""Deterministic SVG rendering of curves, duals and tangent-line envelopes.

Implicit curves are traced with marching squares; the grid is evaluated
column by column through one compiled FloatForm, one list pass per power
of y, so only two adjacent columns are held at a time.  Each column also
becomes an integer sign mask (bit j set when value j is negative), and
bit operations on two adjacent masks select the cells whose corners
differ in sign: only those few are marched.  A crossed cell joins its
edge crossings in the fixed order bottom, left, right, top; only a
saddle, with all four edges crossed, samples its center to pick the
pairs.  Scenes are ordered layers of segments with style tokens and x
offsets; two_panel_scene places source and dual side by side, and
render_svg draws the source panel's axes first and emits byte-stable SVG
1.1, y flipped to mathematical orientation and all coordinates printed
to three decimals; a segment that starts where the previous one ended,
as printed, continues its subpath.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .dualize import ImplicitCurve, _require_spacing, point_to_polyline, sample_curve
from .polyring import DEFAULT_SPACING, X, X1, X2, Y, FloatForm, Polynomial, variables

Point = tuple[float, float]
Segment = tuple[Point, Point]

PANEL_GAP_FRACTION = 0.08


class _ViewportFields(NamedTuple):
    xmin: float
    xmax: float
    ymin: float
    ymax: float
    width_px: int = 480
    height_px: int = 480


class Viewport(_ViewportFields):
    """A window of the plane drawn onto width_px x height_px pixels."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("viewport must have positive extent")
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("pixel dimensions must be positive")
        for span, px in ((self.xmax - self.xmin, self.width_px),
                         (self.ymax - self.ymin, self.height_px)):
            if not (math.isfinite(span) and math.isfinite(px / span)):
                raise ValueError(f"window {self.window()} has a span or pixel scale "
                                 "that is not finite")
        return self

    def window(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.xmax, self.ymin, self.ymax)


class _Layer(NamedTuple):
    data: list[Segment]
    style: str
    dx: float = 0.0


class PlaneScene:
    __slots__ = ("viewport", "panel_xmax", "layers")

    def __init__(self, viewport: Viewport):
        self.viewport = viewport
        self.panel_xmax = viewport.xmax  # the source panel, which owns the axes, ends here
        self.layers: list[_Layer] = []

    def add_segments(self, segments: list[Segment], style: str = "thin",
                     dx: float = 0.0) -> None:
        """Add a layer; render_svg draws each point at (x + dx, y), so a
        shifted panel shares the caller's segments instead of copying them."""
        for segment in segments:
            for px, py in segment:
                if not (math.isfinite(px + dx) and math.isfinite(py)):
                    raise ValueError("scene coordinates must be finite")
        self.layers.append(_Layer(list(segments), style, dx))


def _axes_pair(p: Polynomial) -> tuple[int, int]:
    used = variables(p)
    if used and used <= {X1, X2}:
        return X1, X2
    if used and used <= {X, Y}:
        return X, Y
    raise ValueError("polynomial must depend on the (x1, x2) or (x, y) pair")


def trace_implicit(p: Polynomial, vp: Viewport, grid: int) -> list[Segment]:
    """March a grid x grid cell mesh over the viewport and return the
    zero-set segments of p (empty when the curve misses the window).

    p is compiled once; the y**b powers are taken once per grid row, and
    each grid column x = xv takes p's coefficients in y, form.line(ax, xv),
    which sums the terms that share a y exponent.  A column's values start
    at 0.0 and take one list pass c_b * y**b per nonzero coefficient c_b,
    b ascending, so a column costs one pass per y power and not one per
    term.  Grouping rounds differently from evaluating p
    term by term at each node; the tests bound each value's distance from
    the exact value of p at the float node in units of form.max_abs_term.
    The cells are marched between two adjacent columns, so the full grid of
    values is never held.  A column with a value that is not finite, hence
    a sum that is not, raises OverflowError.

    Each column is also reduced to a sign mask, an int whose bit j is set
    when value j < 0.  A cell is crossed when its four corners do not all
    share one sign; for adjacent column masks L and R that is bit j of
    (L ^ R) | (L ^ L >> 1) | (R ^ R >> 1), cut to the grid's cells.  Only
    those cells are marched, lowest bit first, so the segments come out
    in the order of a full scan of every cell.

    A crossed cell collects the crossing points of its edges whose two
    corners differ in sign, in the order bottom, left, right, top.  Two
    crossings make one segment, joined in that order.  Four make a saddle:
    with bl < 0 (bl and tr negative) a negative center gives the segments
    (left, top), (bottom, right) and any other center (left, bottom),
    (right, top); with br and tl negative a negative center gives
    (bottom, left), (right, top) and any other (bottom, right), (top, left).
    """
    if grid < 16:
        raise ValueError("grid must be at least 16")
    ax, ay = _axes_pair(p)
    form = FloatForm(p, ax, ay)
    xs = [vp.xmin + i * (vp.xmax - vp.xmin) / grid for i in range(grid + 1)]
    ys = [vp.ymin + j * (vp.ymax - vp.ymin) / grid for j in range(grid + 1)]
    y_powers = [[yv ** b for yv in ys] for b in range(form.degree + 1)]
    cells = (1 << grid) - 1  # bit grid of a mask is the top node, not a cell

    def column(xv: float) -> tuple[list[float], int]:
        values = [0.0] * len(ys)
        for coeff, powers in zip(form.line(ax, xv), y_powers):
            if coeff:
                values = [v + coeff * power for v, power in zip(values, powers)]
        if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):
            raise OverflowError(f"grid column at x = {xv!r} is not finite")
        return values, int("".join(["1" if v < 0 else "0" for v in reversed(values)]), 2)

    def interp(x0, y0, v0, x1, y1, v1) -> Point:
        t = v0 / (v0 - v1)
        return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    segments: list[Segment] = []
    right, right_mask = column(xs[0])
    for i in range(grid):
        left, left_mask = right, right_mask
        right, right_mask = column(xs[i + 1])
        crossed = ((left_mask ^ right_mask) | (left_mask ^ (left_mask >> 1))
                   | (right_mask ^ (right_mask >> 1))) & cells
        while crossed:
            low = crossed & -crossed
            crossed ^= low
            j = low.bit_length() - 1
            bl = left[j]
            br = right[j]
            tr = right[j + 1]
            tl = left[j + 1]
            crossings = []
            if (bl < 0) != (br < 0):
                crossings.append(interp(xs[i], ys[j], bl, xs[i + 1], ys[j], br))
            if (bl < 0) != (tl < 0):
                crossings.append(interp(xs[i], ys[j], bl, xs[i], ys[j + 1], tl))
            if (br < 0) != (tr < 0):
                crossings.append(interp(xs[i + 1], ys[j], br, xs[i + 1], ys[j + 1], tr))
            if (tl < 0) != (tr < 0):
                crossings.append(interp(xs[i], ys[j + 1], tl, xs[i + 1], ys[j + 1], tr))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
                continue
            on_bottom, on_left, on_right, on_top = crossings  # a saddle
            center = form(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
            if bl < 0:
                segments += ([(on_left, on_top), (on_bottom, on_right)] if center < 0
                             else [(on_left, on_bottom), (on_right, on_top)])
            else:
                segments += ([(on_bottom, on_left), (on_right, on_top)] if center < 0
                             else [(on_bottom, on_right), (on_top, on_left)])
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
    dual line (the full line through its polyline's two vertices, clipped);
    together the lines envelope the dual curve."""
    if sample_count < 2:
        raise ValueError("sample_count must be at least 2")
    _require_spacing(spacing)
    samples = sample_curve(curve, vp.window(), sample_count)
    segments = []
    for point in samples.points:
        clipped = clip_infinite_line(*point_to_polyline(point, spacing), vp)
        if clipped is not None:
            segments.append(clipped)
    scene = PlaneScene(vp)
    scene.add_segments(segments, style="thin")
    return scene


def _y_axis(xmin: float, xmax: float, ymin: float, ymax: float) -> list[Segment]:
    """The axis x = 0, top to bottom, where [xmin, xmax] spans it: the one
    rule for the vertical axis of either panel."""
    return [((0.0, ymax), (0.0, ymin))] if xmin <= 0 <= xmax else []


def two_panel_scene(panel: Viewport, source_segments: list[Segment],
                    dual_segments: list[Segment]) -> PlaneScene:
    """Source segments in panel, dual segments in a copy of it to the right,
    PANEL_GAP_FRACTION of its x-span apart.  render_svg draws the source
    panel's x = 0 and the y = 0 that crosses both panels; the dual panel's
    x = 0 is one more axis layer, drawn where panel spans it."""
    xmin, xmax, ymin, ymax = panel.window()
    span = xmax - xmin
    gap = PANEL_GAP_FRACTION * span
    shift = span + gap
    total_px = int(round(panel.width_px * (2 * span + gap) / span))
    scene = PlaneScene(Viewport(xmin, xmax + shift, ymin, ymax, total_px, panel.height_px))
    scene.panel_xmax = xmax
    scene.add_segments(source_segments, style="thin")
    scene.add_segments(dual_segments, style="thick", dx=shift)
    axis = _y_axis(xmin, xmax, ymin, ymax)
    if axis:
        scene.add_segments(axis, style="axis", dx=shift)
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
    """Standalone SVG 1.1 text; identical scenes produce identical bytes.

    Each layer is one path.  A segment whose start prints the same as the
    previous segment's end continues the subpath with "L x y" alone; any
    other segment, however small the gap, starts a new one with "M x y".
    The drawn geometry is that of one "M a L b" per segment.  The document
    is written into one byte buffer and decoded once, so no string per
    segment is held.
    """
    vp = scene.viewport
    sx = vp.width_px / (vp.xmax - vp.xmin)
    sy = vp.height_px / (vp.ymax - vp.ymin)

    def to_px(point: Point, dx: float) -> bytes:
        x, y = point
        if dx:  # only then: -0.0 + 0.0 is 0.0, which can print differently
            x += dx
        return f"{_fmt((x - vp.xmin) * sx)} {_fmt((vp.ymax - y) * sy)}".encode()

    out = bytearray(
        '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{vp.width_px}" height="{vp.height_px}" '
        f'viewBox="0 0 {vp.width_px} {vp.height_px}">\n'
        f"<style>{_STYLESHEET}</style>\n"
        f'<rect class="bg" x="0" y="0" width="{vp.width_px}" height="{vp.height_px}"/>\n'
        f'<rect class="frame" x="0.5" y="0.5" '
        f'width="{vp.width_px - 1}" height="{vp.height_px - 1}"/>\n'.encode())
    # x = 0 where the source panel spans it, y = 0 across the viewport
    axes = _y_axis(vp.xmin, scene.panel_xmax, vp.ymin, vp.ymax)
    if vp.ymin <= 0 <= vp.ymax:
        axes.append(((vp.xmin, 0.0), (vp.xmax, 0.0)))
    for layer in ([_Layer(axes, "axis")] if axes else []) + scene.layers:
        out += f'<path class="{layer.style}" d="'.encode()
        end = None
        for a, b in layer.data:
            start = to_px(a, layer.dx)
            if start != end:
                out += b"M " if end is None else b" M "
                out += start
            end = to_px(b, layer.dx)
            out += b" L "
            out += end
        out += b'"/>\n'
    out += b"</svg>\n"
    return out.decode("ascii")
