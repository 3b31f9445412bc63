import argparse
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from helpers import evaluate_float
from pardual.cli import build_parser, main
from pardual.dualize import DEFAULT_SPACING, MAX_SAMPLES
from pardual.plot import MAX_GRID
from pardual.polyparse import parse
from pardual.polyring import FloatForm, content_and_primitive, X, Y

GOLDEN_DIR = Path(__file__).parent / "goldens"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDualCommand:
    def test_fig9(self, capsys):
        code, out, err = run(capsys, "dual", "x1^2*x2 - 1")
        assert code == 0
        assert out == (
            "dual: 27*x^6 - 4*x^3*y^3 - 54*x^5 + 27*x^4\n"
            "source_degree: 3\n"
            "dual_degree: 6\n"
            "psi_power: 6\n")
        assert err == ""

    def test_line_exit_4(self, capsys):
        code, out, err = run(capsys, "dual", "x1 + x2")
        assert code == 4
        assert out == ""
        assert err != ""

    def test_degree_above_cap_exit_4(self, capsys):
        assert run(capsys, "dual", "x1^13 + x2^13 - 1") == (
            4, "", "error: dual_curve supports degree <= 12 (got 13)\n")

    def test_reducible_exit_3(self, capsys):
        code, out, err = run(capsys, "dual", "x1^2 - x2^2")
        assert code == 3
        assert "degenerate" in err or "collapsed" in err

    @pytest.mark.parametrize("text", ["x1^2", "x1^3", "x2^2", "x2^7"])
    def test_vanishing_partial_exit_3(self, text, capsys):
        # a partial vanishes identically, so does the resultant, and that alone refuses it
        code, out, err = run(capsys, "dual", text)
        assert (code, out) == (3, "")
        assert err.startswith("error: degenerate input: resultant vanished identically")

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "dual", "x1^2 *")
        assert code == 2
        assert "offset" in err

    def test_foreign_variable_exit_2(self, capsys):
        code, _, _ = run(capsys, "dual", "x + y")
        assert code == 2

    def test_coefficient_beyond_float_range(self, capsys):
        # dual is exact and compiles no float form, so no coefficient overflows
        big = 10 ** 400
        code, out, err = run(capsys, "dual", f"{big}*x1^2 + x2^2 - 1")
        assert code == 0
        assert out == (
            f"dual: {big + 1}*x^2 - {big}*y^2 - 2*x + 1\n"
            "source_degree: 2\n"
            "dual_degree: 2\n"
            "psi_power: 2\n")
        assert err == ""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter has no int-string limit")
    @pytest.mark.parametrize("argv", [["dual", "--", "x1^2 + x2^2 - 1"],
                                      ["dual", "--", "x1^2 *"], ["dual", "--bad-flag", "x1"]])
    def test_int_string_limit_restored(self, argv, capsys):
        # main lifts the limit while it prints and gives the caller's back,
        # on success, on an error exit and on argparse's SystemExit alike
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            try:
                main(argv)
            except SystemExit:
                pass
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(previous)
        capsys.readouterr()

    def test_dual_beyond_int_string_limit(self, capsys):
        # the input's coefficient has 3841 digits and parses; the dual's have
        # over 4300, Python's default limit on printing an int
        code, out, err = run(capsys, "dual", "x1^3 + x2^3 - (10^64)^60")
        assert (code, err) == (0, "")
        assert out.startswith("dual: 4" + "0" * 4400)
        assert out.endswith("\nsource_degree: 3\ndual_degree: 6\npsi_power: 6\n")
        # refused before the parser builds an oversized coefficient
        code, out, err = run(capsys, "dual", "((((2^64)^64)^64)^64)^64")
        assert (code, out) == (2, "")
        assert err == "error: coefficient overflow (> 10^4000) at offset 15\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("# circle\n\nx1^2 + x2^2 - 1\n"))
        code, out, _ = run(capsys, "dual", "-")
        assert code == 0
        assert out.startswith("dual: 2*x^2 - y^2 - 2*x + 1\n")

    def test_stdin_read_up_to_the_polynomial(self, capsys, monkeypatch):
        # what follows the polynomial line, however long, is never read
        class Stdin:
            def read(self, *args):
                raise AssertionError("stdin read whole")

            def __iter__(self):
                yield "# circle\n"
                yield "x1^2 + x2^2 - 1\n"
                raise AssertionError("stdin read past the polynomial")

        monkeypatch.setattr("sys.stdin", Stdin())
        code, out, _ = run(capsys, "dual", "-")
        assert code == 0
        assert out.startswith("dual: 2*x^2 - y^2 - 2*x + 1\n")

    def test_deep_parentheses_exit_2(self, capsys):
        code, out, err = run(capsys, "dual", "(" * 1000 + "x1" + ")" * 1000)
        assert (code, out) == (2, "")
        assert err.startswith("error: parentheses nested too deeply at offset ")

    def test_byte_identical_stdout(self, capsys):
        _, first, _ = run(capsys, "dual", "x1^3 - x1^2 - x2^2 + x2 - 1")
        _, second, _ = run(capsys, "dual", "x1^3 - x1^2 - x2^2 + x2 - 1")
        assert first == second


class TestConicDualCommand:
    def test_circle(self, capsys):
        code, out, _ = run(capsys, "conic-dual", "1", "1", "-1", "0", "0", "0")
        assert code == 0
        assert out == (
            "a1: -2\na2: 1\na3: -1\na4: 0\na5: 1\na6: 0\n"
            "dual: -2*x^2 + y^2 + 2*x - 1\n")

    def test_rational_entries(self, capsys):
        code, out, _ = run(capsys, "conic-dual", "--", "1/2", "1", "-1/3", "0", "0", "0")
        assert code == 0
        assert out.splitlines()[1] == "a2: 1/2"

    def test_not_degree_two(self, capsys):
        code, _, err = run(capsys, "conic-dual", "0", "0", "1", "0", "1", "1")
        assert code == 2
        assert "degree" in err

    @pytest.mark.parametrize("coeffs", [
        ("1", "0", "0", "0", "0", "0"),   # the double line x1^2
        ("1", "-1", "0", "0", "0", "0"),  # the line pair x1^2 - x2^2
    ])
    def test_degenerate_exit_3(self, coeffs, capsys):
        code, out, err = run(capsys, "conic-dual", "--", *coeffs)
        assert code == 3
        assert out == ""
        assert err.startswith("error: determinant 0")

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "conic-dual", "1", "1", "zebra", "0", "0", "0")
        assert code == 2

    def test_coefficients_follow_the_grammar(self, capsys):
        # the parser's literal rule and caps: no exponent notation, at most 4000 digits
        assert run(capsys, "conic-dual", "--", "1e1000000", "1", "-1", "0", "0", "0") == (
            2, "", "error: A1: unexpected trailing input at offset 2\n")
        assert run(capsys, "conic-dual", "9" * 4001, "1", "-1", "0", "0", "0") == (
            2, "", "error: A1: coefficient overflow (> 10^4000) at offset 1\n")
        code, out, _ = run(capsys, "conic-dual", "--", "2^0", "(1)", "-1", "0", "0", "0")
        assert (code, out.splitlines()[-1]) == (0, "dual: -2*x^2 + y^2 + 2*x - 1")

    def test_consistent_with_dual_command(self, capsys):
        coeffs = ("2", "3", "-5", "1/2", "0", "1")
        code, conic_out, _ = run(capsys, "conic-dual", *coeffs)
        assert code == 0
        conic_poly = parse(conic_out.splitlines()[-1].split(": ", 1)[1])
        source = "2*x1^2 + x1*x2 + 3*x2^2 + 2*x2 - 5"
        code, dual_out, _ = run(capsys, "dual", source)
        assert code == 0
        dual_poly = parse(dual_out.splitlines()[0].split(": ", 1)[1])
        assert content_and_primitive(conic_poly)[1] == dual_poly


class TestVerifyCommand:
    def test_circle(self, capsys):
        code, out, _ = run(capsys, "verify", "x1^2 + x2^2 - 1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("max_residual: ")
        assert float(lines[0].split(": ")[1]) < 1e-6
        assert lines[1] == "tested: 100"
        assert lines[2].startswith("skipped: ")

    def test_empty_locus_exit_5(self, capsys):
        code, _, err = run(capsys, "verify", "x1^2 + x2^2 + 1")
        assert code == 5

    def test_node_cubic(self, capsys):
        code, out, _ = run(capsys, "verify", "x1^3 + x2^2 - 3*x1*x2")
        assert code == 0
        skipped = int(out.splitlines()[2].split(": ")[1])
        assert skipped >= 0

    def test_window_and_samples_flags(self, capsys):
        # values starting with '-' need the --flag=value form
        code, out, _ = run(capsys, "verify", "x1^2 + x2^2 - 1",
                           "--window=-2,2,-2,2", "--samples", "37")
        assert code == 0
        assert out.splitlines()[1] == "tested: 37"

    def test_bad_window_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "x1^2 + x2^2 - 1", "--window", "1,2,3"])
        assert exc.value.code == 2


class TestPlotCommands:
    def test_plot_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "circle.svg"
        code, out, _ = run(capsys, "plot", "x1^2 + x2^2 - 1", "--grid", "64",
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        ET.fromstring(out_path.read_text(encoding="utf-8"))

    def test_plot_stdout_matches_golden(self, capsys):
        code, out, _ = run(capsys, "plot", "x1^2 + x2^2 - 1", "--grid", "64")
        assert code == 0
        fixture = GOLDEN_DIR / "circle_plot.svg"
        assert out == fixture.read_text(encoding="utf-8")

    def test_plot_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "plot", "x1^2*x2 - 1", "--grid", "32", "--out", str(a))
        run(capsys, "plot", "x1^2*x2 - 1", "--grid", "32", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fig9_dual_panel_vertices(self, capsys):
        # the dual panel traces the verified dual: its vertices satisfy g
        code, out, _ = run(capsys, "plot", "x1^2*x2 - 1", "--grid", "64")
        assert code == 0
        root = ET.fromstring(out)
        ns = "{http://www.w3.org/2000/svg}"
        thick = [el for el in root.iter(f"{ns}path") if el.get("class") == "thick"]
        assert thick and thick[0].get("d")
        g = parse("27*x^6 - 4*x^3*y^3 - 54*x^5 + 27*x^4")
        from pardual.plot import Viewport, trace_implicit
        panel = Viewport(-3.0, 3.0, -3.0, 3.0)
        segments = trace_implicit(g, panel, 64)
        assert segments
        scale_form = FloatForm(g)
        for segment in segments:
            for px, py in segment:
                scale = 1.0 + scale_form.at(px, py)[1]
                assert abs(evaluate_float(g, {X: px, Y: py})) < 0.05 * scale

    @pytest.mark.parametrize("window, vertical_axes", [
        ("-3,3,-3,3", 2),
        ("0.5,2,-1,1", 0),
        # x = 0 falls in the gap between the panels: neither panel spans it
        ("-3,-1,-3,3", 0),
    ])
    def test_vertical_axes_only_where_window_spans_zero(self, window, vertical_axes, capsys):
        code, out, _ = run(capsys, "plot", f"--window={window}", "--grid", "16",
                           "x1^2 + x2^2 - 1")
        assert code == 0
        ns = "{http://www.w3.org/2000/svg}"
        segments = [re.findall(r"M (\S+) (\S+) L (\S+) (\S+)", el.get("d"))
                    for el in ET.fromstring(out).iter(f"{ns}path")
                    if el.get("class") == "axis"]
        vertical = [s for layer in segments for s in layer if s[0] == s[2]]
        assert len(vertical) == vertical_axes

    def test_unwritable_path_exit_6(self, capsys, tmp_path):
        code, _, err = run(capsys, "plot", "x1^2 + x2^2 - 1", "--grid", "64",
                           "--out", str(tmp_path / "missing" / "out.svg"))
        assert code == 6
        assert err != ""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_pipe_exit_6(self, unbuffered):
        # the reader closes the pipe before the child writes: unbuffered, the
        # first print fails; buffered, the write waits for main's flush
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR), PYTHONUNBUFFERED=unbuffered)
        proc = subprocess.Popen([sys.executable, "-m", "pardual.cli", "dual", "--",
                                 "x1^2 + x2^2 - 1"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 6
        assert err == b""

    def test_envelope_cardinality(self, capsys):
        code, out, _ = run(capsys, "plot-envelope", "x1^2/4 + x2^2 - 1")
        assert code == 2  # implicit multiplication-free grammar: /4 is invalid
        code, out, _ = run(capsys, "plot-envelope", "1/4*x1^2 + x2^2 - 1",
                           "--samples", "300")
        assert code == 0
        root = ET.fromstring(out)
        ns = "{http://www.w3.org/2000/svg}"
        thin = [el for el in root.iter(f"{ns}path") if el.get("class") == "thin"]
        assert len(thin) == 1
        assert thin[0].get("d").count("M ") == 300


class TestPinnedOutput:
    """sha256 of stdout.  The plot digests were regenerated on purpose,
    together with tests/goldens/*.svg, twice.  First, trace_implicit began
    to sum a column's terms by y power (one list pass per power instead of
    one per term, which rounds differently from evaluate_float), render_svg
    began to continue a subpath with L where a segment starts at the
    previous end as printed, and the dual panel's axis took the source
    panel's rule (drawn top to bottom, no second y = 0); each moved output
    decoded to the previous segments in every layer but the axes, and no
    grid node of these curves changed sign.  Then render_svg began to join
    the segments whose ends print alike into chains, one subpath each
    (trace_implicit's up-to-three powers per pass left every node value
    bit-identical); each moved output decoded, layer by layer, axes
    included, to the previous segments as an undirected multiset, and the
    plot-envelope digest did not move.  Otherwise no digest may move: if
    one does, find the cause, do not re-pin it."""

    SEC32 = "x1^3 - x1^2 - x2^2 + x2 - 1"

    @pytest.mark.parametrize("text, digest", [
        ("x1^2 + x2^2 - 1", "e267328835a00134e71be091d5c060f3b07af587db1471c0b35e917f23c5bad3"),
        ("x1^2*x2 - 1", "dc39b67fb7f73013e5493061df7e8fe86050d819ed6ec72dfc6fcb8157086286"),
        (SEC32, "ff374381ee145e50615cba3b8120d2d8086bd070b76df871f7b788afd250b37d"),
    ])
    def test_plot_default_grid(self, capsys, text, digest):
        code, out, _ = run(capsys, "plot", text)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plot_output_size(self, capsys):
        # The benchmark's plot-grid workload (bench/) keeps every pass's SVG,
        # so its peak_rss_mb grows with the bytes a plot writes times the
        # passes a faster plot makes.  Chaining segments into one subpath
        # per curve cut these three plots from 65,343 bytes to 51,396; they
        # must stay within 80% of the former.
        total = 0
        for text in ("x1^2 + x2^2 - 1", "x1^2*x2 - 1", self.SEC32):
            code, out, _ = run(capsys, "plot", text)
            assert code == 0
            total += len(out.encode())
        assert total <= 52_275

    def test_plot_envelope_circle(self, capsys):
        code, out, _ = run(capsys, "plot-envelope", "x1^2 + x2^2 - 1")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "43e2d3ef11edee41818e2509543aab732180198c4f4b6673c114b4743cbad127")

    # The dense cubics are the first three of test_dualize.dense_text(random.Random(4), 3).
    @pytest.mark.parametrize("text, digest", [
        (SEC32, "aecaee6c6ce71877bfb016df0e9a420075720aea22392efc2e5ec0b6d65da889"),
        ("- 2*x1^3 + 1*x1^2*x2^1 - 6*x1^1*x2^2 + 4*x2^3 + 7*x1^2 - 5*x1^1*x2^1 - 7*x2^2"
         " - 7*x1^1 - 9*x2^1 + 4",
         "e88dd5abb737696aff05db78aa46ad28592a90dcd471d1648f54656b23d81b74"),
        ("9*x1^3 + 1*x1^2*x2^1 - 8*x1^1*x2^2 - 2*x2^3 + 8*x1^2 + 9*x1^1*x2^1 + 3*x2^2"
         " - 1*x1^1 - 4*x2^1 - 6",
         "021b07f4be94157d5a24faf9ebe741deff318b26b8e2f97fd1fde3925b0ce735"),
        ("- 1*x1^3 - 3*x1^2*x2^1 - 9*x1^1*x2^2 - 1*x2^3 - 1*x1^2 - 3*x1^1*x2^1 - 4*x2^2"
         " + 1*x1^1 + 1*x2^1 + 3",
         "b56451b37ac274405c5d2314259fd79e937b39d3ab5e25cd806a0697e612f07a"),
    ])
    def test_verify_100_samples(self, capsys, text, digest):
        code, out, _ = run(capsys, "verify", "--samples", "100", "--", text)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_plot_transient_memory(self, capsys):
        # The benchmark's plot-grid workload (bench/) lets peak_rss_mb grow
        # by at most 10% over the previous commit, and it keeps every pass's
        # SVG, so a faster plot raises its RSS; holding the whole 257 x 257
        # grid of values (about 2.3 MB for this curve) would break that
        # bound.  Marching two columns at a time peaks at about 0.25 MB.
        argv = ("plot", self.SEC32)
        run(capsys, *argv)
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1_000_000


class TestCommandSurface:
    def options(self):
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        return {name: {flag for action in sub._actions for flag in action.option_strings
                       if flag not in ("-h", "--help")}
                for name, sub in commands.choices.items()}

    def test_each_command_declares_only_what_it_reads(self):
        options = self.options()
        assert options == {
            "dual": set(),
            "conic-dual": set(),
            "verify": {"--window", "--samples"},
            "plot": {"--window", "--grid", "--out"},
            "plot-envelope": {"--window", "--samples", "--spacing", "--out"},
            "eval": {"--at"},
        }
        curve_commands = ("verify", "plot", "plot-envelope")
        assert sum(len(options[name]) for name in curve_commands) == 9

    @pytest.mark.parametrize("argv", [
        ["verify", "--grid", "64", "x1^2 + x2^2 - 1"],
        ["verify", "--spacing", "2", "x1^2 + x2^2 - 1"],
        ["plot", "--samples", "10", "x1^2 + x2^2 - 1"],
        ["plot", "--spacing", "2", "x1^2 + x2^2 - 1"],
        ["plot-envelope", "--grid", "64", "x1^2 + x2^2 - 1"],
    ])
    def test_unread_option_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_caps(self, capsys):
        # argparse reads an int; trace_implicit and sample_curve own the caps
        args = build_parser().parse_args(["plot", "--grid", str(MAX_GRID + 1), "x1"])
        assert args.grid == MAX_GRID + 1
        for argv, err in (
                (["plot", "--grid", str(MAX_GRID + 1)],
                 f"error: grid must be from 16 to {MAX_GRID} (got {MAX_GRID + 1})\n"),
                (["verify", "--samples", str(MAX_SAMPLES + 1)],
                 f"error: sample count must be from 1 to {MAX_SAMPLES} (got {MAX_SAMPLES + 1})\n"),
                (["plot-envelope", "--samples", "10" * 10],
                 f"error: sample count must be from 2 to {MAX_SAMPLES} (got {'10' * 10})\n")):
            assert run(capsys, *argv, "--", "x1^2 + x2^2 - 1") == (2, "", err)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["plot", "--grid", "many", "x1"])
        assert exc.value.code == 2

    def test_sample_count_at_the_cap_accepted(self, monkeypatch, capsys):
        # a count equal to MAX_SAMPLES passes the range check and reaches the
        # float step, which the patch turns into a sentinel
        class Reached(Exception):
            pass

        def float_forms(f):
            raise Reached
        monkeypatch.setattr("pardual.dualize._float_forms", float_forms)
        for command in ("verify", "plot-envelope"):
            with pytest.raises(Reached):
                main([command, "--samples", str(MAX_SAMPLES), "--", "x1^2 + x2^2 - 1"])
        assert run(capsys, "plot-envelope", "--samples", "1", "--", "x1^2 + x2^2 - 1") == (
            2, "", f"error: sample count must be from 2 to {MAX_SAMPLES} (got 1)\n")

    def test_spacing_default(self):
        args = build_parser().parse_args(["plot-envelope", "x1"])
        assert args.spacing == DEFAULT_SPACING

    def test_nonpositive_spacing_exit_2(self, capsys):
        code, out, err = run(capsys, "plot-envelope", "x1^2 + x2^2 - 1", "--spacing=0")
        assert code == 2
        assert out == ""
        assert "spacing" in err

    @pytest.mark.parametrize("command", ["verify", "plot", "plot-envelope"])
    @pytest.mark.parametrize("window", ["-inf,inf,-3,3", "-3,3,nan,3"])
    def test_nonfinite_window_exit_2(self, command, window, capsys):
        # argparse reads the floats and dualize's window rule refuses them:
        # spans first, so a NaN bound is not finite rather than empty
        code, out, err = run(capsys, command, "x1^2 + x2^2 - 1", f"--window={window}")
        assert (code, out) == (2, "")
        assert err.startswith("error: window (") and "not finite" in err

    @pytest.mark.parametrize("command", ["verify", "plot", "plot-envelope"])
    @pytest.mark.parametrize("window", ["1,0,0,1", "0,1,1,1"])
    def test_empty_window_exit_2(self, command, window, capsys):
        # one window rule, dualize's, for every command with a window
        assert run(capsys, command, "x1^2 + x2^2 - 1", f"--window={window}") == (
            2, "", "error: window must be nonempty\n")

    @pytest.mark.parametrize("command", ["plot", "plot-envelope"])
    @pytest.mark.parametrize("window", ["0,1e-320,0,1", "0,1,0,1e-320", "-1e308,1e308,-1,1"])
    def test_nonfinite_pixel_scale_exit_2(self, command, window, capsys):
        # finite bounds whose span, or pixels per unit, overflows
        code, out, err = run(capsys, command, "x1^2 + x2^2 - 1", f"--window={window}")
        assert code == 2
        assert out == ""
        assert "window (" in err and "not finite" in err

    @pytest.mark.parametrize("window", ["-1e308,1e308,-1,1", "-1,1,-1e308,1e308"])
    def test_verify_nonfinite_span_exit_2(self, window, capsys):
        # the circle lies in the window, but its x or y span overflows: refused
        # as plot and plot-envelope refuse it, not reported as no samples (exit 5)
        code, out, err = run(capsys, "verify", "x1^2 + x2^2 - 1", f"--window={window}")
        assert code == 2
        assert out == ""
        assert "window (" in err and "not finite" in err

    @pytest.mark.parametrize("command, text, window", [
        ("plot", "x1^2 + x2^2 - 1", "-1e200,1e200,-1,1"),
        ("verify", "x1^2 + x2^2 - 1", "-1e308,0.5e308,-1,1"),
        ("plot-envelope", "x1^2 + x2^2 - 1", "-1e308,0.5e308,-1,1"),
        ("plot", f"{10 ** 400}*x1^2 + x2^2 - 1", "-3,3,-3,3"),
        ("verify", f"{10 ** 400}*x1^2 + x2^2 - 1", "-3,3,-3,3"),
        # root refinement overflows to NaN samples, which once passed verify
        ("verify", "x1^2*x2 - 1", "-1e150,1e150,-1e150,1e150"),
        ("verify", "x1*x2 - 1", "-1e200,1e200,-1e200,1e200"),
        ("plot-envelope", "x1^2*x2 - 1", "-1e150,1e150,-1e150,1e150"),
        # 2*x1^2 overflows to inf, and inf - inf is a NaN grid value
        ("plot", "2*x1^2 - 2*x2^2 - 1", "-1.3e154,1.3e154,-1.3e154,1.3e154"),
    ])
    def test_float_overflow_exit_2(self, command, text, window, capsys):
        # finite bounds whose powers, or a coefficient, overflow a float
        code, out, err = run(capsys, command, text, f"--window={window}")
        assert code == 2
        assert out == ""
        bounds = ",".join(f"{float(v):g}" for v in window.split(","))
        assert err.startswith(f"error: float evaluation over window {bounds} overflowed")
        assert "Traceback" not in err

    def test_overflow_names_the_grid_column(self, capsys):
        # x1*x2 - 1 has degree 1 in x2, so the trace takes no x2^2, which
        # overflows here; the column's values do, and the error says where
        code, out, err = run(capsys, "plot", "x1*x2 - 1", "--window=1e200,2e200,1e200,2e200")
        assert code == 2
        assert out == ""
        assert err == ("error: float evaluation over window 1e+200,2e+200,1e+200,2e+200 "
                       "overflowed: grid column at x = 1e+200 is not finite\n")

    def test_overflow_names_a_column_too_large_to_certify(self, capsys):
        # No column's scale S is below 1e300 here, so none is certified to
        # keep one sign: the first column is evaluated, and its sum overflows
        code, out, err = run(capsys, "plot", "x1^2 + x2^2 - 1",
                             "--window=-1e154,1e154,-1e154,1e154")
        assert code == 2
        assert out == ""
        assert err == ("error: float evaluation over window -1e+154,1e+154,-1e+154,1e+154 "
                       "overflowed: grid column at x = -1e+154 is not finite\n")

    def test_overflow_without_window_exit_2(self, capsys, monkeypatch):
        # the handler names a window only for a command that has one
        def overflow(args):
            raise OverflowError("int too large to convert to float")
        monkeypatch.setattr("pardual.cli.cmd_dual", overflow)
        code, out, err = run(capsys, "dual", "x1^2 + x2^2 - 1")
        assert code == 2
        assert out == ""
        assert err == "error: float evaluation overflowed: int too large to convert to float\n"

    def test_degree_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "dual", "(x1^64)^2")
        assert code == 2
        assert "degree" in err

    def test_term_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "dual", "(x1+x2+x+y+1)^16")
        assert code == 2
        assert out == ""
        assert "term count" in err

    @pytest.mark.parametrize("argv, err", [
        (["conic-dual", "1", "1", "zebra", "0", "0", "0"],
         "error: A3: unknown variable 'zebra' at offset 1\n"),
        (["conic-dual", "1", "1", "1/0", "0", "0", "0"],
         "error: A3: zero denominator at offset 3\n"),
        (["conic-dual", "0", "0", "1", "0", "1", "1"],
         "error: A1, A2, A4 all zero: not a degree-2 curve\n"),
        (["eval", "x1", "--at", "zebra=1"], "error: unknown variable 'zebra'\n"),
        (["eval", "x1", "--at", "x1=1/0"], "error: --at x1: zero denominator at offset 3\n"),
        (["eval", "x1", "--at", "x1=1, x1=2"], "error: variable 'x1' is bound twice\n"),
        # x3, eta, xi and psi are the paper's notation, not variables
        (["eval", "--at", "x1=1,eta=1", "--", "x1"], "error: unknown variable 'eta'\n"),
        (["eval", "--at", "eta=2,psi=3,x3=1", "--", "eta*psi + x3"],
         "error: unknown variable 'eta' at offset 1\n"),
        (["dual", "--", "x3*x1^2 + x2^2 - 1"], "error: unknown variable 'x3' at offset 1\n"),
        # a value must be a constant, and its error names the argument it came from
        (["conic-dual", "1", "1", "x2", "0", "0", "0"],
         "error: A3: a value must be a constant (found x2)\n"),
        (["conic-dual", "1", "1", "-1", "0", "0", "x*y - x1"],
         "error: A6: a value must be a constant (found x1, x, y)\n"),
        (["eval", "--at", "x1=x2", "--", "x1"],
         "error: --at x1: a value must be a constant (found x2)\n"),
        (["eval", "--at", "x1=1,x2=(1", "--", "x1 + x2"], "error: --at x2: expected ')' at offset 3\n"),
    ])
    def test_input_error_line(self, argv, err, capsys):
        assert run(capsys, *argv) == (2, "", err)


class TestArgumentsBeforeElimination:
    """Each handler tests dual_curve's degree rule and runs the library's
    argument checks, by sampling or tracing the source, before it takes a
    resultant."""

    TENTH = "x1^10 + x2^10 - 1"  # its dual takes seconds

    @pytest.fixture
    def resultant_calls(self, monkeypatch):
        calls = []

        def resultant(*forms):
            calls.append(forms)
            raise RuntimeError("resultant called")
        monkeypatch.setattr("pardual.elimination.resultant", resultant)
        return calls

    def test_patch_reaches_dual_curve(self, resultant_calls, capsys):
        with pytest.raises(RuntimeError, match="resultant called"):
            main(["dual", "--", self.TENTH])
        assert len(resultant_calls) == 1

    @pytest.mark.parametrize("argv, err", [
        (["verify", "--window=1,0,0,1"], "error: window must be nonempty\n"),
        (["plot", "--window=1,0,0,1"], "error: window must be nonempty\n"),
        (["verify", "--window=-3,3,nan,3"],
         "error: window (-3.0, 3.0, nan, 3.0) has an x or y span that is not finite\n"),
        (["plot", "--window=-inf,inf,-3,3"],
         "error: window (-inf, inf, -3.0, 3.0) has an x or y span that is not finite\n"),
        (["plot", "--window=0,1e-320,0,1"],
         "error: window (0.0, 1e-320, 0.0, 1.0) has a pixel scale that is not finite\n"),
        (["verify", "--samples", "0"], "error: sample count must be from 1 to 10000 (got 0)\n"),
        (["verify", "--samples", "10001"],
         "error: sample count must be from 1 to 10000 (got 10001)\n"),
        (["plot", "--grid", "8"], "error: grid must be from 16 to 2048 (got 8)\n"),
        (["plot", "--grid", "2049"], "error: grid must be from 16 to 2048 (got 2049)\n"),
    ])
    def test_refused_before_the_resultant(self, argv, err, resultant_calls, capsys):
        assert run(capsys, *argv, "--", self.TENTH) == (2, "", err)
        assert resultant_calls == []

    @pytest.mark.parametrize("argv", [
        ["verify", "--samples", "10000"],
        ["plot", "--grid", "2048"],
        ["plot", "--grid", "8"],
    ])
    @pytest.mark.parametrize("poly, err", [
        ("x1^13 + x2^13 - 1", "error: dual_curve supports degree <= 12 (got 13)\n"),
        ("(x1 + x2 + 1)^64", "error: dual_curve supports degree <= 12 (got 64)\n"),
        ("x1 + x2", "error: dual_curve needs degree >= 2 (lines dualize to points)\n"),
    ])
    def test_degree_refused_before_sampling_or_tracing(self, argv, poly, err, resultant_calls,
                                                       monkeypatch, capsys):
        # dual_curve's degree rule is tested first, so a degree it refuses
        # costs no scan of the window, however large the grid or count
        calls = []

        def record(name):
            def fake(*args, **kwargs):
                calls.append(name)
                raise RuntimeError(f"{name} called")
            return fake
        monkeypatch.setattr("pardual.dualize.sample_curve", record("sample_curve"))
        monkeypatch.setattr("pardual.plot.trace_implicit", record("trace_implicit"))
        assert run(capsys, *argv, "--", poly) == (4, "", err)
        assert calls == [] and resultant_calls == []


class TestReadmeExamples:
    def test_cli_block(self, capsys):
        # every `pardual ...` line of the README's CLI block that is followed
        # by `# key: value` lines must print exactly those lines
        text = README.read_text(encoding="utf-8")
        block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        checked = []
        for i, line in enumerate(lines):
            if not line.startswith("pardual "):
                continue
            expected = ""
            for follow in lines[i + 1:]:
                if not re.fullmatch(r"# \w+: .*", follow):
                    break
                expected += follow[2:] + "\n"
            if expected:
                code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
                assert (code, out, err) == (0, expected, ""), line
                checked.append(line.split()[1])
        assert {"dual", "conic-dual", "eval"} <= set(checked)


class TestEvalCommand:
    def test_exact_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "x1^2 + x2^2 - 1", "--at", "x1=3/5,x2=4/5")
        assert code == 0
        assert out == "value: 0\n"

    def test_rational_value(self, capsys):
        code, out, _ = run(capsys, "eval", "x1^2 - 1/2", "--at", "x1=1/3")
        assert code == 0
        assert out == "value: -7/18\n"

    def test_unbound_variable(self, capsys):
        code, _, err = run(capsys, "eval", "x1 + x2", "--at", "x1=1")
        assert code == 2

    def test_unknown_variable(self, capsys):
        code, _, err = run(capsys, "eval", "x1", "--at", "zebra=1")
        assert code == 2

    @pytest.mark.parametrize("value", ["1e100000", "1.5", "1_000", "+1", "9" * 5000,
                                       "(" * 1000 + "1" + ")" * 1000],
                             ids=["exponent", "decimal", "underscore", "plus", "5000-digits",
                                  "deep-parentheses"])
    def test_value_follows_the_grammar(self, value, capsys):
        # one literal rule, the parser's, with its 4000-digit cap and budgets
        code, out, err = run(capsys, "eval", "--at", f"x1={value}", "--", "x1^64")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_signed_and_constant_values(self, capsys):
        assert run(capsys, "eval", "--at", "x1=-3/7,x2=2", "--", "x1^2 + x2^2 - 2") == (
            0, "value: 107/49\n", "")
        assert run(capsys, "eval", "--at", "x1=2^3", "--", "x1") == (0, "value: 8\n", "")


# Runs one command through pardual.cli.main, or imports the package when
# the command is null, and reports the modules that step loaded.  main
# loads what `python -m pardual.cli` loads, and returns, where the module
# run as a script would end the process before the report.
MODULE_PROBE = """
import json, sys
before = set(sys.modules)
command = json.loads(sys.argv[1])
code = 0
if command is None:
    import pardual
else:
    import pardual.cli
    try:
        code = pardual.cli.main(command)
    except SystemExit as exc:
        code = exc.code
sys.stdout.flush()
print(json.dumps([code, sorted(set(sys.modules) - before)]), file=sys.stderr)
"""


def modules_loaded_by(command):
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, json.dumps(command)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stderr.splitlines()[-1])
    return code, set(modules)


class TestModuleBudget:
    """Each command loads only the modules it runs."""

    CIRCLE = "x1^2 + x2^2 - 1"
    OPTIONAL = {"pardual.dualize", "pardual.elimination", "pardual.plot"}
    DUAL = {"pardual.dualize", "pardual.elimination"}

    @pytest.mark.parametrize("command, exit_code, runs", [
        pytest.param(["dual", "--", CIRCLE], 0, DUAL, id="dual"),
        pytest.param(["conic-dual", "1", "1", "-1", "0", "0", "0"], 0, {"pardual.dualize"},
                     id="conic-dual"),
        pytest.param(["verify", "--samples", "10", "--", CIRCLE], 0, DUAL, id="verify"),
        pytest.param(["eval", CIRCLE, "--at", "x1=3/5,x2=4/5"], 0, set(), id="eval"),
        pytest.param(["dual", "--", "x1^^2"], 2, set(), id="parse-error"),
        pytest.param(["plot-envelope", "--samples", "10", "--", CIRCLE], 0,
                     {"pardual.dualize", "pardual.plot"}, id="plot-envelope"),
        pytest.param(["dual", "--", "x1 + 2*x2 - 3"], 4, {"pardual.dualize"}, id="line-exit-4"),
    ])
    def test_command(self, command, exit_code, runs):
        code, loaded = modules_loaded_by(command)
        assert code == exit_code
        assert "pardual.polyparse" in loaded
        assert "dataclasses" not in loaded
        assert loaded & self.OPTIONAL == runs

    def test_import_package(self):
        code, loaded = modules_loaded_by(None)
        assert code == 0
        assert "pardual" in loaded
        assert not {name for name in loaded if name.startswith("pardual.")}


# Runs pardual.cli as `python -m pardual.cli` does, as __main__ and so
# through cli.run, with an atexit handler that marks the interpreter's
# teardown on stderr: the hard exit skips it, the ordinary exit runs it.
EXIT_PROBE = """
import atexit, runpy, sys
atexit.register(print, "teardown", file=sys.stderr)
runpy.run_module("pardual.cli", run_name="__main__", alter_sys=True)
"""


class TestHardExit:
    """cli.run ends the process by os._exit and loses no output on the way."""

    CIRCLE = "x1^2 + x2^2 - 1"

    @pytest.mark.parametrize("argv, exit_code, hard", [
        pytest.param(["dual", "--", CIRCLE], 0, True, id="dual"),
        pytest.param(["conic-dual", "1", "1", "-1", "0", "0", "0"], 0, True, id="conic-dual"),
        pytest.param(["eval", CIRCLE, "--at", "x1=3/5,x2=4/5"], 0, True, id="eval"),
        pytest.param(["verify", "--samples", "10", "--", CIRCLE], 0, True, id="verify"),
        pytest.param(["plot-envelope", "--samples", "10", "--", CIRCLE], 0, True,
                     id="plot-envelope"),
        pytest.param(["plot", "--grid", "16", "--out", "{out}", "--", CIRCLE], 0, True,
                     id="plot-out"),
        pytest.param(["dual", "--", "x1^^2"], 2, True, id="parse-error"),
        pytest.param(["plot", "--grid", "16", "--out", "{missing}", "--", CIRCLE], 6, True,
                     id="unwritable-out"),
        pytest.param(["dual", "--grid", "16", CIRCLE], 2, False, id="argparse-error"),
        pytest.param(["dual", "--help"], 0, False, id="help"),
    ])
    def test_child_matches_main(self, argv, exit_code, hard, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal's width
        missing = tmp_path / "missing" / "out.svg"
        child_argv = [arg.format(out=tmp_path / "child.svg", missing=missing) for arg in argv]
        main_argv = [arg.format(out=tmp_path / "main.svg", missing=missing) for arg in argv]
        child = subprocess.run([sys.executable, "-c", EXIT_PROBE, *child_argv],
                               capture_output=True, text=True, timeout=60,
                               env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
        try:
            code = main(main_argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert child.returncode == code == exit_code
        assert child.stdout == captured.out
        assert child.stderr == captured.err + ("" if hard else "teardown\n")
        if "{out}" in argv:
            assert (tmp_path / "child.svg").read_bytes() == (tmp_path / "main.svg").read_bytes()

    def test_cprofile_prints_its_stats(self):
        # cProfile sets a profile hook (a monitoring tool from Python 3.12 on)
        # and prints its table after the module ends: run leaves it the ordinary exit
        proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "pardual.cli",
                               "dual", "--", self.CIRCLE],
                              capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(SRC_DIR)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("dual: 2*x^2 - y^2 - 2*x + 1\n")
        assert re.search(r"\d+ function calls .* in [\d.]+ seconds", proc.stdout)
        assert "Ordered by: " in proc.stdout
