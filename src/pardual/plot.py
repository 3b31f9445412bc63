"""Deterministic SVG rendering of curves, duals and tangent-line envelopes.

Implicit curves are traced with marching squares; the grid is evaluated
column by column through one compiled FloatForm, up to three powers of y
per list pass, so only two adjacent columns are held at a time.  Each
column also becomes an integer sign mask (bit j set when value j is
negative), read from the sign bits of the column packed as IEEE doubles
with no Python step per value, and bit operations on two adjacent masks
select the cells whose corners differ in sign: only those few are
marched.  A column whose coefficients in y keep it away from zero over
the grid's y span, by a margin of 2*gamma*S (S the per-column scale of
ROADMAP item 12) that covers every rounding, is certified to keep one
sign and takes that mask without its list passes; they run, unchanged,
only when a crossed cell reads the column, so no value or byte moves.
The first bytes packed for the mask also say which columns may hold an
inf or a NaN, and only those are checked value by value.  A crossed cell
joins its edge crossings in the fixed order bottom, left, right, top;
each crossing is interpolated once and shared, as one object, by the two
cells of its edge.  Only a saddle, with all four edges crossed, samples
its center to pick the pairs.  Scenes are ordered
layers of segments with style tokens and x offsets; two_panel_scene
places source and dual side by side, and render_svg draws the source
panel's axes first and emits byte-stable SVG 1.1, y flipped to
mathematical orientation and all coordinates printed to three decimals,
each vertex object of a layer once; segments whose ends print alike are
joined into chains, one subpath each, so a traced curve is drawn as one M.
"""

from __future__ import annotations

import math
import struct
from typing import Iterator, NamedTuple

from .dualize import (ImplicitCurve, _require_sample_count, _require_spacing, _require_window,
                      point_to_polyline, sample_curve)
from .polyring import DEFAULT_SPACING, FloatForm, Polynomial

Point = tuple[float, float]
Segment = tuple[Point, Point]

PANEL_GAP_FRACTION = 0.08
MAX_GRID = 2048  # trace_implicit's cells per side

# Maps the first byte of a big-endian double to "1" when its sign bit is set.
_SIGN_DIGITS = b"0" * 128 + b"1" * 128


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
        _require_window(self.window())
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError("pixel dimensions must be positive")
        if not (math.isfinite(self.width_px / (self.xmax - self.xmin))
                and math.isfinite(self.height_px / (self.ymax - self.ymin))):
            raise ValueError(f"window {self.window()} has a pixel scale that is not finite")
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


def _column_values(c0: float, coeffs: list[float], ys: list[float],
                   y_powers: list[list[float]]) -> list[float]:
    """The column c0 + sum(c_b * y**b) at each node of ys, y_powers[b - 1]
    holding each node's y**b: c0 plus the nonzero c_b * y**b, b ascending,
    up to three powers per list pass (see trace_implicit)."""
    terms = [(c, powers) for c, powers in zip(coeffs, y_powers) if c]
    head = len(terms) % 3 or 3  # the first pass takes the rest, every later one three
    if not terms:
        values = [c0] * len(ys)
    elif head == 1:
        [(a, ya)] = terms[:1]
        values = [c0 + a * pa for pa in ya]
    elif head == 2:
        (a, ya), (b, yb) = terms[:2]
        values = [c0 + a * pa + b * pb for pa, pb in zip(ya, yb)]
    else:
        (a, ya), (b, yb), (c, yc) = terms[:3]
        values = [c0 + a * pa + b * pb + c * pc for pa, pb, pc in zip(ya, yb, yc)]
    for k in range(head, len(terms), 3):
        (a, ya), (b, yb), (c, yc) = terms[k:k + 3]
        values = [v + a * pa + b * pb + c * pc
                  for v, pa, pb, pc in zip(values, ya, yb, yc)]
    return values


def _power_ranges(y_lo: float, y_hi: float, degree: int) -> list[tuple[float, float, float]]:
    """(low, high, top) for b = 1 .. degree: y**b lies in [low, high] and
    |y|**b is at most top for y_lo <= y <= y_hi, from the powers of the
    two ends as ** takes them at the grid's nodes."""
    ranges = []
    for b in range(1, degree + 1):
        first, last = y_lo ** b, y_hi ** b
        if b % 2:  # y**b rises with y
            low, high = first, last
        else:  # y**b is |y|**b, least at the y nearest 0
            low, high = min(first, last), max(first, last)
            if y_lo < 0 < y_hi:
                low = 0.0
        ranges.append((low, high, max(abs(first), abs(last))))
    return ranges


def _column_sign(c0: float, coeffs: list[float],
                 ranges: list[tuple[float, float, float]]) -> int:
    """1 when every value of a column, c0 + sum(c_b * y**b) as
    trace_implicit's passes compute it at the nodes of the y span that
    ranges (from _power_ranges) covers, is certified positive, -1 when
    every one is certified negative, 0 otherwise.  coeffs[b - 1] is c_b;
    entries past len(ranges), the column's degree d in y, are zero.

    lo and hi bound the exact column from below and above over the span,
    each term at its least and its greatest, and S = |c0| +
    sum(|c_b| * max |y|**b), the per-column scale of ROADMAP item 12,
    bounds the sum of the terms' magnitudes at every node.  The sign is
    certified when lo > 2*gamma*S, or hi < -2*gamma*S, for gamma =
    4*(d + 4)*u and u = 2**-53.  Taking the column's coefficients as
    given, a node value rounds y**b once in ** (within 2u: libm's pow is
    good to one unit in the last place), once in its product and once in
    each of at most d additions, so it is within gamma_(d+3)*S of its
    exact value, where gamma_n = n*u / (1 - n*u) < gamma / 4.  lo, hi and
    S take the same roundings and the margin's product one more, so
    lo > 2*gamma*S leaves every exact node value above
    (2*gamma - 3*gamma_(d+3))*S, beyond its own rounding error: every float
    value is positive, and hi < -2*gamma*S makes every one negative.  This
    is the standard model, with no operand or result below 2**-1022; lo
    and hi are also summed in the passes' order, so with a pow monotone in
    y they bound every node value outright, rounding being monotone.

    A column with S >= 1e300, inf or NaN certifies nothing: only its
    passes can tell whether a value overflows, and they raise
    OverflowError on it.  A certified column's values are finite."""
    lo = hi = c0
    scale = abs(c0)
    for c, (low, high, top) in zip(coeffs, ranges):
        if c < 0:
            lo += c * high
            hi += c * low
            scale -= c * top
        else:  # a NaN c comes here and makes S NaN
            lo += c * low
            hi += c * high
            scale += c * top
    if scale < 1e300:  # also false for inf and NaN
        margin = 8 * (len(ranges) + 4) * 2.0 ** -53 * scale  # 2 * gamma * S
        if lo > margin:
            return 1
        if hi < -margin:
            return -1
    return 0


def trace_implicit(p: Polynomial, vp: Viewport, grid: int) -> list[Segment]:
    """March a grid x grid cell mesh over the viewport and return the
    zero-set segments of p (empty when the curve misses the window); grid
    runs from 16 to MAX_GRID.  p's pair of variables, (x1, x2) or (x, y),
    is the one its FloatForm reads: the first is drawn along x and the
    second along y.  A p that names no variable, or mixes the two pairs,
    raises ValueError.

    p is compiled once; the y**b powers are taken once per grid row, and
    each grid column x = xv takes p's coefficients in y, form.line(ax, xv),
    which sums the terms that share a y exponent.  A column's values start
    at c_0, or at 0.0 when c_0 is zero, and add c_b * y**b for each
    nonzero c_b, b ascending, up to three powers per list pass: the first
    pass adds one, two or three of them to the scalar c_0, as many as leave
    a multiple of three, and every later pass three, v + a*p + b*q + c*r.
    Python adds left to right, so each node value rounds exactly as one
    pass per power from 0.0 would (0.0 + c_0 is c_0, and so is c_0 * 1.0);
    a column costs about one pass per three y powers, not one per term.
    Grouping by y power rounds differently from evaluating p term by term
    at each node; the tests bound each value's distance from the exact
    value of p at the float node in units of the scale form.at reads
    there, p's largest |term|.  The cells are marched between two adjacent
    columns, so the full grid of values is never held.  A column with a
    value that is not finite raises OverflowError.  Powers of y above p's
    degree in y are never taken: their coefficients are zero, and they
    could overflow where p does not.

    Before its passes, each column's coefficients are bounded over the
    grid's y span, min(ys) to max(ys), by _column_sign: a column whose
    lower bound exceeds the margin 2*gamma*S (S the per-column scale of
    ROADMAP item 12, gamma = 4*(d + 4)*2**-53 for p's degree d in y, which
    covers the rounding of the passes, of yv ** b and of the bound) is
    certified positive and takes the mask 0; one whose upper bound is
    below -2*gamma*S is certified negative and takes the mask with all
    grid + 1 bits set.  Those are the masks its values would give.  A
    certified column's passes run only when a crossed cell reads its
    values, and they are the same passes in the same order, so every
    value read, and every segment, is bit for bit what evaluating every
    column gives; most columns of a curve that fills a small part of the
    window are never evaluated.  A column with S >= 1e300, inf or NaN is
    not certified, so a column with a value that overflows still raises.

    Each column is also reduced to a sign mask, an int whose bit j is set
    when value j < 0.  The mask is read in C builtins, with no Python step
    per value: the column is packed once as big-endian IEEE doubles, the
    first byte of each (its sign bit is bit 7) is taken in reverse node
    order, each becomes the digit "1" or "0" through a 256-byte translate
    table, and int(..., 2) parses the digits.  The sign bit disagrees with
    v < 0 only on NaN and on -0.0.  NaN never reaches the mask: a column
    that is not finite raises first.  -0.0 never occurs: a column starts
    at c0 or 0.0, never at -0.0; every node value is a left-to-right sum
    from that start; and a round-to-nearest IEEE sum is -0.0 only when
    both addends are -0.0, so no partial sum is, whatever the sign of the
    products added to it (-3.0 * 0.0 is -0.0, 0.0 + -0.0 is 0.0).

    The same first bytes screen the column for finiteness: an inf or a
    NaN has every exponent bit set, so its first byte is 0x7f or 0xff.
    Only a column with such a byte, which a finite value of magnitude
    2**1009 or more also has, is checked with math.isfinite value by value.

    A cell is crossed when its four corners do not all share one sign;
    for adjacent column masks L and R that is bit j of (L ^ R) |
    (L ^ L >> 1) | (R ^ R >> 1), cut to the grid's cells.  Only those
    cells are marched, lowest bit first, so the segments come out in the
    order of a full scan of every cell.

    A crossed cell collects the crossing points of its edges whose two
    corners differ in sign, in the order bottom, left, right, top.  Each
    crossing is interpolated once, by the first cell of its edge to be
    marched, and the other cell reuses that point object: a bottom
    crossing is the top crossing of cell j - 1, marched just before, and
    a left one is the right crossing of cell j in the last column pair.
    Both cells would interpolate it from the same two corner values in
    the same argument order, so sharing moves no bit.  Two
    crossings make one segment, joined in that order.  Four make a saddle:
    with bl < 0 (bl and tr negative) a negative center gives the segments
    (left, top), (bottom, right) and any other center (left, bottom),
    (right, top); with br and tl negative a negative center gives
    (bottom, left), (right, top) and any other (bottom, right), (top, left).
    """
    if not 16 <= grid <= MAX_GRID:
        raise ValueError(f"grid must be from 16 to {MAX_GRID} (got {grid})")
    form = FloatForm(p)
    if not form.degree:
        raise ValueError("polynomial must depend on the (x1, x2) or (x, y) pair")
    ax = form.axes[0]
    xs = [vp.xmin + i * (vp.xmax - vp.xmin) / grid for i in range(grid + 1)]
    ys = [vp.ymin + j * (vp.ymax - vp.ymin) / grid for j in range(grid + 1)]
    y_degree = max((b for _, _, b in form.terms), default=0)
    y_powers = [[yv ** b for yv in ys] for b in range(1, y_degree + 1)]
    ranges = _power_ranges(min(ys), max(ys), y_degree)
    cells = (1 << grid) - 1  # bit grid of a mask is the top node, not a cell
    negative = (1 << (grid + 1)) - 1  # every node, the top one included
    pack = struct.Struct(f">{grid + 1}d").pack

    def column(xv: float) -> tuple[list[float] | None, int, tuple[float, list[float]] | None]:
        """(values, mask, line): a certified column's values are None, and
        its line (c0, coeffs) waits for its passes until a crossed cell reads it."""
        c0, *coeffs = form.line(ax, xv)
        c0 = c0 or 0.0  # as 0.0 + c0 would: a column never starts at -0.0
        sign = _column_sign(c0, coeffs, ranges)
        if sign:
            return None, 0 if sign > 0 else negative, (c0, coeffs)
        values = _column_values(c0, coeffs, ys, y_powers)
        heads = pack(*values)[-8::-8]
        if (b"\x7f" in heads or b"\xff" in heads) and not all(map(math.isfinite, values)):
            raise OverflowError(f"grid column at x = {xv!r} is not finite")
        return values, int(heads.translate(_SIGN_DIGITS), 2), None

    def interp(x0, y0, v0, x1, y1, v1) -> Point:
        t = v0 / (v0 - v1)
        return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    segments: list[Segment] = []
    right, right_mask, right_line = column(xs[0])
    rights: dict[int, Point] = {}
    for i in range(grid):
        left, left_mask, left_line = right, right_mask, right_line
        right, right_mask, right_line = column(xs[i + 1])
        lefts, rights = rights, {}
        x0, x1 = xs[i], xs[i + 1]
        crossed = ((left_mask ^ right_mask) | (left_mask ^ (left_mask >> 1))
                   | (right_mask ^ (right_mask >> 1))) & cells
        if crossed:
            if left is None:
                left = _column_values(*left_line, ys, y_powers)
            if right is None:
                right = _column_values(*right_line, ys, y_powers)
        while crossed:
            low = crossed & -crossed
            crossed ^= low
            j = low.bit_length() - 1
            y0, y1 = ys[j], ys[j + 1]
            bl = left[j]
            br = right[j]
            tr = right[j + 1]
            tl = left[j + 1]
            crossings = []
            if (bl < 0) != (br < 0):  # then cell j - 1, marched just before, set on_top
                crossings.append(on_top if j else interp(x0, y0, bl, x1, y0, br))
            if (bl < 0) != (tl < 0):  # then cell j of the last column pair set lefts[j]
                crossings.append(lefts[j] if i else interp(x0, y0, bl, x0, y1, tl))
            if (br < 0) != (tr < 0):
                rights[j] = on_right = interp(x1, y0, br, x1, y1, tr)
                crossings.append(on_right)
            if (tl < 0) != (tr < 0):
                on_top = interp(x0, y1, tl, x1, y1, tr)
                crossings.append(on_top)
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
                continue
            on_bottom, on_left, on_right, on_top = crossings  # a saddle
            center, _ = form.at(0.5 * (x0 + x1), 0.5 * (y0 + y1))
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
    _require_sample_count(sample_count, 2)
    _require_spacing(spacing)
    segments = []
    for point in sample_curve(curve, vp.window(), sample_count):
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


def _chains(ends: list[bytes]) -> Iterator[list[int]]:
    """Split segments into chains, given each segment's two printed ends
    (ends[2k] and ends[2k + 1] for segment k).  A chain passes through
    every point where exactly two segment ends meet and stops at any other
    point, so it is a maximal run of segments, open or closed; a point
    where three or more ends meet stops every chain through it.  Each
    chain is the list of its end indices in drawing order: entering a
    segment at end e leaves it at e ^ 1.  Chains come out in the order of
    their first segment, and each draws that segment from its start to
    its end: an open chain starts at whichever of its two ends allows
    that, a closed one at that segment's start."""
    first: dict[bytes, int] = {}  # the first end at each point; -1 once three meet
    link = [-1] * len(ends)  # the other end at a point where exactly two meet
    for e, text in enumerate(ends):
        f = first.setdefault(text, e)
        if f == e or f < 0:
            continue
        g = link[f]
        if g < 0:
            link[e], link[f] = f, e
        else:
            link[f] = link[g] = -1
            first[text] = -1
    used = bytearray(len(ends) // 2)
    for k in range(len(used)):
        if used[k]:
            continue
        start = 2 * k
        while link[start] >= 0 and link[start] >> 1 != k:  # back to the chain's end
            start = link[start] ^ 1
        if link[start] >= 0:  # back at segment k: the chain is closed
            start = 2 * k
        chain = []
        e = start
        while e >= 0 and not used[e >> 1]:
            used[e >> 1] = True
            chain.append(e)
            e = link[e ^ 1]
        yield chain


def render_svg(scene: PlaneScene) -> str:
    """Standalone SVG 1.1 text; identical scenes produce identical bytes.

    Each layer is one path, and each chain of its segments (see _chains),
    joined where their ends print alike, is one subpath "M a L b L c ...":
    an open traced curve is one M however its segments are ordered.
    Points that print differently, however close, never join.  Decoding
    the path gives back every segment of the layer as printed, some drawn
    end to start.  Each vertex object of a layer is printed once, both
    coordinates by one b"%.3f %.3f" (the digits of f"{v:.3f}", -0.000
    included); trace_implicit shares each crossing between its two cells,
    so that halves the printing of a traced curve.  The document is
    written into one byte buffer and decoded once.
    """
    vp = scene.viewport
    sx = vp.width_px / (vp.xmax - vp.xmin)
    sy = vp.height_px / (vp.ymax - vp.ymin)

    def printed_ends(layer: _Layer) -> list[bytes]:
        """Each segment end of the layer as printed, each vertex object
        printed once: keyed by identity, not value, as -0.0 == 0.0 but the
        two print apart; the layer's data keeps every key alive."""
        dx = layer.dx
        texts: dict[int, bytes] = {}
        ends = []
        for segment in layer.data:
            for point in segment:
                key = id(point)
                text = texts.get(key)
                if text is None:
                    x, y = point
                    if dx:  # only then: -0.0 + 0.0 is 0.0, which can print differently
                        x += dx
                    text = texts[key] = b"%.3f %.3f" % ((x - vp.xmin) * sx, (vp.ymax - y) * sy)
                ends.append(text)
        return ends

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
        ends = printed_ends(layer)
        out += f'<path class="{layer.style}" d="'.encode()
        for n, chain in enumerate(_chains(ends)):
            out += b" M " if n else b"M "
            out += ends[chain[0]]
            for e in chain:
                out += b" L "
                out += ends[e ^ 1]
        out += b'"/>\n'
    out += b"</svg>\n"
    return out.decode("ascii")
