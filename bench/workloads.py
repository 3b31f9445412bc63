"""Seeded inputs, timed operations and output checks of the three workloads.

dual-corpus  in-process ``dual_curve(ImplicitCurve(parse(text)))`` over the
             paper curves plus seeded dense cubics, quartics and one quintic.
plot-grid    in-process ``cli.main(["plot", text])`` at the default grid.
cli-mix      one ``python -m pardual.cli`` child process per command.

Each workload is a list of Op.  ``call`` is the timed operation; ``canonical``
turns its result into the bytes the run digest covers (the ``dual:`` text, the
exit code, the SVG or stdout); ``check`` returns why a result is wrong, or
None.  Inputs are generated from the seed and parsed when the list is built,
before any timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

from tracer import PAYLOAD_PREFIX

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

WINDOW = (-3.0, 3.0, -3.0, 3.0)
ORACLE_SAMPLES = 100
RESIDUAL_LIMIT = 1e-6
VERTEX_LIMIT = 0.01
CHILD_TIMEOUT_S = 30

PAPER = {
    "circle": "x1^2 + x2^2 - 1",
    "fig8": "x1^3 + x2^2 - 3*x1*x2",
    "fig9": "x1^2*x2 - 1",
    "sec32": "x1^3 - x1^2 - x2^2 + x2 - 1",
    "fermat": "x1^4 + x2^4 - 1",
}

# (degree, how many) of the seeded dense curves in dual-corpus.  Ten cubics
# put the median in a cluster of like inputs; five quartics put the tail
# (ten samples beyond it over two passes) at the quartics.
DENSE = ((3, 10), (4, 5), (5, 1))
NONZERO = [c for c in range(-9, 10) if c]

DUAL_KEYS = ("dual:", "source_degree:", "dual_degree:", "psi_power:")
CONIC_KEYS = ("a1:", "a2:", "a3:", "a4:", "a5:", "a6:", "dual:")
VERIFY_KEYS = ("max_residual:", "tested:", "skipped:")


@dataclass
class Op:
    label: str
    call: Callable  # call(tracer or None) -> result; the timed operation
    canonical: Callable  # result -> bytes covered by the run digest
    check: Callable  # result -> reason it is wrong, or None


# -- generated polynomials ---------------------------------------------------

def poly_text(coeffs: dict[tuple[int, int], int]) -> str:
    """Input text of sum c * x1^e1 * x2^e2, highest degree first."""
    out = []
    for (e1, e2), c in sorted(coeffs.items(), key=lambda kv: (-sum(kv[0]), -kv[0][0])):
        if not c:
            continue
        factors = [f"{v}^{e}" if e > 1 else v for v, e in (("x1", e1), ("x2", e2)) if e]
        mono = "*".join(factors)
        body = mono if abs(c) == 1 and mono else "*".join([str(abs(c))] + factors)
        sign = ("-" if c < 0 else "") if not out else ("- " if c < 0 else "+ ")
        out.append(sign + body)
    return " ".join(out)


def evaluator(text: str):
    """f(x1, x2) of a polynomial text, computed without pardual.  The texts
    are the benchmark's own, so evaluating them as Python is safe."""
    code = compile(text.replace("^", "**"), "<curve>", "eval")
    return lambda x1, x2: eval(code, {"__builtins__": {}}, {"x1": x1, "x2": x2})


def _meets_window(f) -> bool:
    """f changes sign on a 9 x 9 grid over the window: real points to sample."""
    xmin, xmax, ymin, ymax = WINDOW
    signs = {f(xmin + i * (xmax - xmin) / 8, ymin + j * (ymax - ymin) / 8) > 0
             for i in range(9) for j in range(9)}
    return len(signs) == 2


def dense_curve(rng: random.Random, degree: int) -> str:
    """Every monomial of degree <= n present, coefficients in [-9, 9] \\ {0}."""
    while True:
        coeffs = {(e1, e2): rng.choice(NONZERO)
                  for e1 in range(degree + 1) for e2 in range(degree + 1 - e1)}
        text = poly_text(coeffs)
        if _meets_window(evaluator(text)):
            return text


def seeded_conic(rng: random.Random) -> tuple[list[int], str]:
    """A1..A6 of A1*x1^2 + 2*A4*x1*x2 + 2*A5*x1 + A2*x2^2 + 2*A6*x2 + A3,
    nondegenerate and with real points in the window, and its text."""
    while True:
        a1, a2, a3, a4, a5, a6 = (rng.randint(-9, 9) for _ in range(6))
        det = a1 * (a2 * a3 - a6 ** 2) - a4 * (a4 * a3 - a6 * a5) + a5 * (a4 * a6 - a2 * a5)
        if not (a1 or a2 or a4) or det == 0:
            continue
        text = poly_text({(2, 0): a1, (1, 1): 2 * a4, (1, 0): 2 * a5,
                          (0, 2): a2, (0, 1): 2 * a6, (0, 0): a3})
        if _meets_window(evaluator(text)):
            return [a1, a2, a3, a4, a5, a6], text


# -- dual-corpus -------------------------------------------------------------

def _dual_call(text, tracer):
    from pardual import dualize, polyparse
    return dualize.dual_curve(dualize.ImplicitCurve(polyparse.parse(text)))


def _dual_canonical(dual) -> bytes:
    from pardual import polyparse
    return f"dual: {polyparse.print_poly(dual.g)}\n".encode()


def _dual_check(curve, dual):
    from pardual import dualize, polyring
    bound = curve.n * (curve.n - 1)
    degree = polyring.total_degree(dual.g)
    if degree > bound:
        return f"dual degree {degree} exceeds n(n-1) = {bound}"
    try:
        samples = dualize.sample_curve(curve, WINDOW, ORACLE_SAMPLES)
        report = dualize.verify_duality(curve, dual, samples)
    except dualize.NoSamplesError as exc:
        return f"oracle: {exc}"
    if not report.max_residual < RESIDUAL_LIMIT:
        return f"oracle residual {report.max_residual:.3e}"
    return None


def dual_corpus(seed: int) -> list[Op]:
    from pardual import dualize, polyparse
    rng = random.Random(seed)
    cheap = list(PAPER.items())
    costly = []
    for degree, count in DENSE:
        name = {3: "cubic", 4: "quartic", 5: "quintic"}[degree]
        texts = [(f"{name}-{i + 1}", dense_curve(rng, degree)) for i in range(count)]
        (cheap if degree < 4 else costly).extend(texts)
    # The cheap inputs are spread between the costly ones, so that the
    # samples the median comes from are taken across the whole pass; the
    # speed of a shared machine drifts over seconds.
    gaps = len(costly) + 1
    ordered = []
    for i in range(gaps):
        ordered += cheap[i::gaps] + costly[i:i + 1]
    ops = []
    for label, text in ordered:
        curve = dualize.ImplicitCurve(polyparse.parse(text))
        ops.append(Op(label, partial(_dual_call, text), _dual_canonical,
                      partial(_dual_check, curve)))
    return ops


# -- plot-grid ---------------------------------------------------------------

def _plot_call(text, tracer):
    from pardual import cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["plot", text])
    return code, buffer.getvalue()


def _path_points(d: str) -> list[tuple[float, float]]:
    tokens = d.split()
    points = []
    i = 0
    while i < len(tokens):
        if tokens[i] in ("M", "L"):
            points.append((float(tokens[i + 1]), float(tokens[i + 2])))
            i += 3
        else:
            i += 1
    return points


def _svg_root(svg: str):
    try:
        return ElementTree.fromstring(svg.encode("utf-8")), None
    except ElementTree.ParseError as exc:
        return None, f"SVG does not parse: {exc}"


def _plot_check(f, result):
    """Source-panel vertices, mapped back from pixels, lie on f = 0.

    The vertical scale is the panel height over the window's y-range; the
    horizontal one is read from the source panel's own y-axis line, which
    the plot draws at x = 0.
    """
    code, svg = result
    if code != 0:
        return f"exit code {code}"
    root, error = _svg_root(svg)
    if error:
        return error
    xmin, _, ymin, ymax = WINDOW
    paths = {}
    for element in root.iter("{http://www.w3.org/2000/svg}path"):
        paths.setdefault(element.get("class"), element.get("d", ""))
    axis = _path_points(paths.get("axis", ""))
    if len(axis) < 2 or axis[0][0] != axis[1][0]:
        return "source panel has no y-axis line to scale by"
    sx = axis[0][0] / (0.0 - xmin)
    sy = float(root.get("height")) / (ymax - ymin)
    vertices = _path_points(paths.get("thin", ""))
    if not vertices:
        return "source panel has no segments"
    worst = max(abs(f(xmin + px / sx, ymax - py / sy)) for px, py in vertices)
    if not worst < VERTEX_LIMIT:
        return f"source vertex off the curve: |f| = {worst:.3g}"
    return None


def plot_grid(seed: int) -> list[Op]:
    """The seed only orders the three curves; the inputs are fixed."""
    from pardual import polyparse
    labels = ["circle", "fig9", "sec32"]
    random.Random(seed).shuffle(labels)
    ops = []
    for label in labels:
        text = PAPER[label]
        polyparse.parse(text)
        ops.append(Op(label, partial(_plot_call, text),
                      lambda result: f"exit: {result[0]}\n{result[1]}".encode(),
                      partial(_plot_check, evaluator(text))))
    return ops


# -- cli-mix -----------------------------------------------------------------

def _cli_call(args, tracer):
    """Run one command in a child; traced children report their spans on
    the last line of stderr, which is folded into the tracer and removed."""
    if tracer is None:
        argv = [sys.executable, "-m", "pardual.cli", *args]
    else:
        argv = [sys.executable, str(LAUNCHER), *args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, cwd=ROOT, env=env,
                          timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    stderr = proc.stderr.decode("utf-8", "replace")
    if tracer is not None:
        head, _, payload = stderr.rpartition(PAYLOAD_PREFIX)
        if not payload:
            raise RuntimeError(f"traced child reported no spans: {stderr!r}")
        report = json.loads(payload)
        tracer.add_stats(report["stats"], report["counts"])
        tracer.absent.extend(a for a in report["absent"] if a not in tracer.absent)
        main_s = report["stats"].get("cli.main", [0, 0.0, 0.0])[1]
        tracer.count("cli.startup_s", wall - main_s)
        stderr = head
    return proc.returncode, proc.stdout, stderr


def _cli_check(expect_code, expect, result):
    """expect: key prefixes stdout must have, "svg", a Fraction for eval, or
    None for a command meant to fail."""
    code, stdout, stderr = result
    if code != expect_code:
        return f"exit code {code}, expected {expect_code}: {stderr.strip()}"
    if expect is None:
        return None if "error:" in stderr else "no error message on stderr"
    text = stdout.decode("utf-8", "replace")
    if expect == "svg":
        return _svg_root(text)[1]
    lines = text.splitlines()
    if isinstance(expect, Fraction):
        return None if f"value: {expect}" in lines else f"eval printed {text!r}"
    missing = [key for key in expect if not any(line.startswith(key) for line in lines)]
    return f"missing {' '.join(missing)}" if missing else None


def cli_mix(seed: int) -> list[Op]:
    rng = random.Random(seed)
    conics = [seeded_conic(rng) for _ in range(4)]
    commands = []  # (label, args, exit code, expectation)
    for label in ("circle", "fig9", "fig8", "sec32"):
        commands.append((f"dual {label}", ["dual", "--", PAPER[label]], 0, DUAL_KEYS))
    for i, (_, text) in enumerate(conics):
        commands.append((f"dual conic-{i + 1}", ["dual", "--", text], 0, DUAL_KEYS))
    for i, (a, _) in enumerate(conics[:2]):
        commands.append((f"conic-dual conic-{i + 1}",
                         ["conic-dual", "--", *map(str, a)], 0, CONIC_KEYS))
    for i, (_, text) in enumerate(conics[2:]):
        x1 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x2 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        commands.append((f"eval conic-{i + 3}", ["eval", "--at", f"x1={x1},x2={x2}", "--", text],
                         0, evaluator(text)(x1, x2)))
    verify = [("sec32", PAPER["sec32"])]
    verify += [(f"conic-{i}", text) for i, (_, text) in enumerate(conics[1:], start=2)]
    for label, text in verify:
        commands.append((f"verify {label}",
                         ["verify", "--samples", str(ORACLE_SAMPLES), "--", text], 0, VERIFY_KEYS))
    commands.append(("plot-envelope circle", ["plot-envelope", "--", PAPER["circle"]], 0, "svg"))
    commands.append(("dual malformed-1", ["dual", "--", "x1^^2"], 2, None))
    commands.append(("dual malformed-2", ["dual", "--", "x1 + * x2"], 2, None))
    commands.append(("dual line", ["dual", "--", "x1 + 2*x2 - 3"], 4, None))
    return [Op(label, partial(_cli_call, args),
               lambda result: f"exit: {result[0]}\n".encode() + result[1],
               partial(_cli_check, code, expect))
            for label, args, code, expect in commands]


WORKLOADS = {"dual-corpus": dual_corpus, "plot-grid": plot_grid, "cli-mix": cli_mix}
