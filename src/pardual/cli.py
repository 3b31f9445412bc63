"""Command-line interface.

Commands: dual, conic-dual, verify, plot, plot-envelope, eval.  Results go
to stdout as "key: value" lines (or SVG text), diagnostics to stderr.
Exit codes: 0 success, 1 verification above threshold, 2 bad input
(including a window or coefficient too large for float evaluation),
3 degenerate curve, 4 degree below 2 or above 12, 5 no verifiable
samples, 6 unwritable output (an --out path, or a stdout pipe closed
early, which exits quietly).  Handlers raise ValueError on bad input;
main prints the "error:" line and exits with the error's exit_code
(3 to 5), or 2.  Each command loads only the modules it runs, importing
dualize or plot once its input parses, and elimination only when it takes
a resultant.

This module only turns text into values, each rational into a constant of
the input grammar; the library function that uses a value checks it.
verify and plot test the source degree, then sample or trace the source,
all before dual_curve.

`pardual` and `python -m pardual.cli` go through run: once main returns,
stdout and stderr are flushed and the process ends by os._exit, skipping
the interpreter's teardown (which only frees memory the OS takes back),
when no trace, profile or sys.monitoring tool is attached.  atexit
handlers registered by other code do not run on that path.  Under such a
tool the process exits the ordinary way, so `python -m cProfile -m
pardual.cli ...` prints its table as before.

The polynomial argument is read from the first positional, or from stdin
when it is "-", up to its first non-comment line and no further.  Use
"--" before positional arguments that start with a minus sign (`pardual
dual -- "-x1^2 + x2"`) and the equals form for such flag values
(`--window=-3,3,-3,3`).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import NoReturn

from .polyparse import ParseError, parse, print_poly
from .polyring import (DEFAULT_SPACING, VAR_BY_NAME, VAR_NAMES, X, Y, evaluate_exact,
                       total_degree, variables)

DEFAULT_WINDOW = (-3.0, 3.0, -3.0, 3.0)
DEFAULT_GRID = 256
DEFAULT_SAMPLES = 100


def _window(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window must be XMIN,XMAX,YMIN,YMAX")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"window values must be floats: {exc}")


def _constant(name: str, text: str) -> Fraction:
    """A value argument (a conic-dual coefficient or an --at value), which
    must be a constant of the input grammar; an error names the argument."""
    try:
        value = parse(text)
    except ParseError as exc:
        raise ValueError(f"{name}: {exc}") from None
    used = variables(value)
    if used:
        names = ", ".join(VAR_NAMES[var] for var in sorted(used))
        raise ValueError(f"{name}: a value must be a constant (found {names})")
    return evaluate_exact(value, {})


def _read_poly_text(arg: str) -> str:
    if arg != "-":
        return arg
    for line in sys.stdin:  # stops at the polynomial, so what follows is never read
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return stripped
    raise ParseError("no polynomial on stdin", 1)


def _curve_from(arg: str):
    # handlers parse before importing dualize or plot: bad input loads neither
    poly = parse(_read_poly_text(arg))
    from .dualize import ImplicitCurve
    return ImplicitCurve(poly)


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
    curve = _curve_from(args.poly)
    from .dualize import dual_curve
    dual = dual_curve(curve)
    print(f"dual: {print_poly(dual.g)}")
    print(f"source_degree: {dual.source_degree}")
    print(f"dual_degree: {total_degree(dual.g)}")
    print(f"psi_power: {dual.psi_power_removed}")
    return 0


def cmd_conic_dual(args) -> int:
    values = [_constant(f"A{i}", text) for i, text in enumerate(args.coefficients, 1)]
    from .dualize import ConicMatrix, conic_dual_matrix
    dual = conic_dual_matrix(ConicMatrix.of(*values))
    for name in ("a1", "a2", "a3", "a4", "a5", "a6"):
        print(f"{name}: {getattr(dual, name)}")
    print(f"dual: {print_poly(dual.polynomial(X, Y))}")
    return 0


def cmd_verify(args) -> int:
    curve = _curve_from(args.poly)
    from .dualize import (RESIDUAL_THRESHOLD, _require_degree, dual_curve, sample_curve,
                          verify_duality)
    _require_degree(curve)
    samples = sample_curve(curve, args.window, args.samples)  # checks window and count
    dual = dual_curve(curve)
    report = verify_duality(curve, dual, samples)
    print(f"max_residual: {report.max_residual:.3e}")
    print(f"tested: {report.tested}")
    print(f"skipped: {report.skipped}")
    return 0 if report.max_residual < RESIDUAL_THRESHOLD else 1


def cmd_plot(args) -> int:
    curve = _curve_from(args.poly)
    from .dualize import _require_degree, dual_curve
    from .plot import Viewport, render_svg, trace_implicit, two_panel_scene
    _require_degree(curve)
    panel = Viewport(*args.window)
    source = trace_implicit(curve.f, panel, args.grid)  # checks the grid
    dual = dual_curve(curve)
    scene = two_panel_scene(panel, source, trace_implicit(dual.g, panel, args.grid))
    return _write_output(render_svg(scene), args.out)


def cmd_plot_envelope(args) -> int:
    curve = _curve_from(args.poly)
    from .plot import Viewport, envelope_scene, render_svg
    scene = envelope_scene(curve, args.samples, Viewport(*args.window), spacing=args.spacing)
    return _write_output(render_svg(scene), args.out)


def cmd_eval(args) -> int:
    poly = parse(_read_poly_text(args.poly))
    point = {}
    for binding in args.at.split(","):
        name, _, value = binding.partition("=")
        name = name.strip()
        if name not in VAR_BY_NAME:
            raise ValueError(f"unknown variable {name!r}")
        if VAR_BY_NAME[name] in point:
            raise ValueError(f"variable {name!r} is bound twice")
        point[VAR_BY_NAME[name]] = _constant(f"--at {name}", value)
    print(f"value: {evaluate_exact(poly, point)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pardual",
        description="Point-curve duals of planar algebraic curves in parallel coordinates.")
    commands = parser.add_subparsers(dest="command", required=True)

    options = {
        "--window": dict(type=_window, default=DEFAULT_WINDOW, metavar="XMIN,XMAX,YMIN,YMAX"),
        "--grid": dict(type=int, default=DEFAULT_GRID),
        "--samples": dict(type=int, default=DEFAULT_SAMPLES),
        "--spacing": dict(type=float, default=DEFAULT_SPACING),
        "--out": dict(default=None),
        "--at": dict(required=True, metavar="VAR=RAT,...",
                     help="bindings such as x1=3/5,x2=-4/5"),
    }

    def add_poly_command(name, help, func, *flags):
        # each command declares exactly the options its handler reads
        sub = commands.add_parser(name, help=help)
        sub.add_argument("poly", help="polynomial text, or - for stdin")
        for flag in flags:
            sub.add_argument(flag, **options[flag])
        sub.set_defaults(func=func)

    add_poly_command("dual", "print the dual polynomial", cmd_dual)

    sub = commands.add_parser("conic-dual", help="dual conic from six coefficients")
    sub.add_argument("coefficients", nargs=6, metavar="A",
                     help="A1 A2 A3 A4 A5 A6 as rationals (prefix with -- if negative)")
    sub.set_defaults(func=cmd_conic_dual)

    add_poly_command("verify", "numeric duality verification", cmd_verify,
                     "--window", "--samples")
    add_poly_command("plot", "two-panel SVG of source and dual", cmd_plot,
                     "--window", "--grid", "--out")
    add_poly_command("plot-envelope", "tangent-line envelope SVG", cmd_plot_envelope,
                     "--window", "--samples", "--spacing", "--out")
    add_poly_command("eval", "exact evaluation at a rational point", cmd_eval, "--at")
    return parser


def main(argv=None) -> int:
    # a dual's coefficients outgrow the input's, so the parser's cap on input
    # does not keep them under the 4300-digit limit on printing an int that
    # Python sets from 3.10.7 on; every command's output prints in full, and
    # the caller's limit is back in force when main returns or raises
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return _main(argv)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader of stdout went away: unwritable output, and no traceback;
        # stdout now points at devnull, so the flush at shutdown cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 6
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    except OverflowError as exc:
        # only the float views overflow; name the window of a command that has one
        window = getattr(args, "window", None)
        where = "" if window is None else " over window " + ",".join(f"{v:g}" for v in window)
        print(f"error: float evaluation{where} overflowed: {exc}", file=sys.stderr)
        return 2


def _watched() -> bool:
    """Whether a trace or profile hook, or from Python 3.12 on a
    sys.monitoring tool (ids 0 to 5), is attached; cProfile registers as
    monitoring tool 2 there and sets no profile hook."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None
                and any(monitoring.get_tool(tool) is not None for tool in range(6))))


def run() -> NoReturn:
    """Console entry point: run main and end the process with its code,
    by os._exit after flushing stdout and stderr when no tool watches (see
    the module docstring).  An exception from main, argparse's SystemExit
    included, leaves the process to exit the ordinary way."""
    code = main()
    if not _watched():
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
