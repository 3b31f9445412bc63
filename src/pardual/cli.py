"""Command-line interface.

Commands: dual, conic-dual, verify, plot, plot-envelope, eval.  Results go
to stdout as "key: value" lines (or SVG text), diagnostics to stderr.
Exit codes: 0 success, 1 verification above threshold, 2 bad input,
3 degenerate curve, 4 degree below 2, 5 no verifiable samples,
6 unwritable output path.

The polynomial argument is read from the first positional, or from stdin
when it is "-" (first non-comment line).  Use "--" before positional
arguments that start with a minus sign (`pardual dual -- "-x1^2 + x2"`)
and the equals form for such flag values (`--window=-3,3,-3,3`).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .dualize import (
    DEFAULT_SPACING,
    ConicMatrix,
    DegenerateCurveError,
    DegreeError,
    ImplicitCurve,
    NoSamplesError,
    RESIDUAL_THRESHOLD,
    conic_dual_matrix,
    dual_curve,
    sample_curve,
    verify_duality,
)
from .plot import PlaneScene, Viewport, envelope_scene, render_svg, trace_implicit
from .polyparse import ParseError, parse, print_poly
from .polyring import VAR_BY_NAME, X, Y, total_degree
from . import polyring

DEFAULT_WINDOW = (-3.0, 3.0, -3.0, 3.0)
DEFAULT_GRID = 256
DEFAULT_SAMPLES = 100
MAX_GRID = 2048
MAX_SAMPLES = 10000
PANEL_PX = 480
PANEL_GAP_FRACTION = 0.08


def _window(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be XMIN,XMAX,YMIN,YMAX")
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"window values must be floats: {exc}")
    if not all(math.isfinite(v) for v in (xmin, xmax, ymin, ymax)):
        raise argparse.ArgumentTypeError(f"window values must be finite, got {text!r}")
    return (xmin, xmax, ymin, ymax)


def _capped_int(limit: int):
    """argparse type for an integer option of at most limit."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value > limit:
            raise argparse.ArgumentTypeError(f"{value} exceeds the cap of {limit}")
        return value
    return convert


def _read_poly_text(arg: str) -> str:
    if arg != "-":
        return arg
    for line in sys.stdin.read().splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return stripped
    raise ParseError("no polynomial on stdin", 1)


def _curve_from(arg: str) -> ImplicitCurve:
    return ImplicitCurve(parse(_read_poly_text(arg)))


def _write_output(text: str, path: str | None) -> int:
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 6
    return 0


def cmd_dual(args) -> int:
    dual = dual_curve(_curve_from(args.poly))
    print(f"dual: {print_poly(dual.g)}")
    print(f"source_degree: {dual.source_degree}")
    print(f"dual_degree: {total_degree(dual.g)}")
    print(f"psi_power: {dual.psi_power_removed}")
    return 0


def cmd_conic_dual(args) -> int:
    try:
        values = [Fraction(text) for text in args.coefficients]
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: malformed rational: {exc}", file=sys.stderr)
        return 2
    source = ConicMatrix.of(*values)
    if not source.is_degree_two():
        print("error: A1, A2, A4 all zero: not a degree-2 curve", file=sys.stderr)
        return 2
    dual = conic_dual_matrix(source)
    for name in ("a1", "a2", "a3", "a4", "a5", "a6"):
        print(f"{name}: {getattr(dual, name)}")
    print(f"dual: {print_poly(dual.polynomial(X, Y))}")
    return 0


def cmd_verify(args) -> int:
    curve = _curve_from(args.poly)
    dual = dual_curve(curve)
    samples = sample_curve(curve, args.window, args.samples)
    report = verify_duality(curve, dual, samples)
    print(f"max_residual: {report.max_residual:.3e}")
    print(f"tested: {report.tested}")
    print(f"skipped: {report.skipped}")
    return 0 if report.max_residual < RESIDUAL_THRESHOLD else 1


def _panel_viewport(window) -> Viewport:
    xmin, xmax, ymin, ymax = window
    return Viewport(xmin, xmax, ymin, ymax, PANEL_PX, PANEL_PX)


def two_panel_scene(window, source_segments, dual_segments) -> PlaneScene:
    """Source curve on the left, dual on the right, sharing one y-range."""
    xmin, xmax, ymin, ymax = window
    span = xmax - xmin
    gap = PANEL_GAP_FRACTION * span
    shift = span + gap
    total_px = int(round(PANEL_PX * (2 * span + gap) / span))
    vp = Viewport(xmin, xmax + shift, ymin, ymax, total_px, PANEL_PX)
    scene = PlaneScene(vp)
    scene.add_segments(source_segments, style="thin")
    scene.add_segments([((a[0] + shift, a[1]), (b[0] + shift, b[1]))
                        for a, b in dual_segments], style="thick")
    # axes of the right-hand panel (the scene only auto-draws the left ones)
    axis = []
    if xmin <= 0 <= xmax:
        axis.append(((shift, ymin), (shift, ymax)))
    if ymin <= 0 <= ymax:
        axis.append(((xmin + shift, 0.0), (xmax + shift, 0.0)))
    if axis:
        scene.add_segments(axis, style="axis")
    return scene


def cmd_plot(args) -> int:
    curve = _curve_from(args.poly)
    dual = dual_curve(curve)
    panel = _panel_viewport(args.window)
    source_segments = trace_implicit(curve.f, panel, args.grid)
    dual_segments = trace_implicit(dual.g, panel, args.grid)
    scene = two_panel_scene(args.window, source_segments, dual_segments)
    return _write_output(render_svg(scene), args.out)


def cmd_plot_envelope(args) -> int:
    curve = _curve_from(args.poly)
    scene = envelope_scene(curve, args.samples, _panel_viewport(args.window),
                           spacing=args.spacing)
    return _write_output(render_svg(scene), args.out)


def cmd_eval(args) -> int:
    poly = parse(_read_poly_text(args.poly))
    point = {}
    for binding in args.at.split(","):
        name, _, value = binding.partition("=")
        name = name.strip()
        if name not in VAR_BY_NAME:
            print(f"error: unknown variable {name!r}", file=sys.stderr)
            return 2
        try:
            point[VAR_BY_NAME[name]] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: malformed rational: {exc}", file=sys.stderr)
            return 2
    print(f"value: {polyring.evaluate_exact(poly, point)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pardual",
        description="Point-curve duals of planar algebraic curves in parallel coordinates.")
    commands = parser.add_subparsers(dest="command", required=True)

    options = {
        "--window": dict(type=_window, default=DEFAULT_WINDOW, metavar="XMIN,XMAX,YMIN,YMAX"),
        "--grid": dict(type=_capped_int(MAX_GRID), default=DEFAULT_GRID),
        "--samples": dict(type=_capped_int(MAX_SAMPLES), default=DEFAULT_SAMPLES),
        "--spacing": dict(type=float, default=DEFAULT_SPACING),
        "--out": dict(default=None),
    }

    def add_curve_command(name, help, func, *flags):
        # each command declares exactly the options its handler reads
        sub = commands.add_parser(name, help=help)
        sub.add_argument("poly", help="polynomial text, or - for stdin")
        for flag in ("--window", *flags):
            sub.add_argument(flag, **options[flag])
        sub.set_defaults(func=func)

    sub = commands.add_parser("dual", help="print the dual polynomial")
    sub.add_argument("poly", help="polynomial text, or - for stdin")
    sub.set_defaults(func=cmd_dual)

    sub = commands.add_parser("conic-dual", help="dual conic from six coefficients")
    sub.add_argument("coefficients", nargs=6, metavar="A",
                     help="A1 A2 A3 A4 A5 A6 as rationals (prefix with -- if negative)")
    sub.set_defaults(func=cmd_conic_dual)

    add_curve_command("verify", "numeric duality verification", cmd_verify, "--samples")
    add_curve_command("plot", "two-panel SVG of source and dual", cmd_plot, "--grid", "--out")
    add_curve_command("plot-envelope", "tangent-line envelope SVG", cmd_plot_envelope,
                      "--samples", "--spacing", "--out")

    sub = commands.add_parser("eval", help="exact evaluation at a rational point")
    sub.add_argument("poly", help="polynomial text, or - for stdin")
    sub.add_argument("--at", required=True, metavar="VAR=RAT,...",
                     help="bindings such as x1=3/5,x2=-4/5")
    sub.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DegenerateCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoSamplesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
