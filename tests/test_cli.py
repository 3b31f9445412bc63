import argparse
import hashlib
import io
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from pardual.cli import MAX_GRID, MAX_SAMPLES, build_parser, main
from pardual.dualize import DEFAULT_SPACING
from pardual.polyparse import parse
from pardual.polyring import FloatForm, content_and_primitive, evaluate_float, X, Y

GOLDEN_DIR = Path(__file__).parent / "goldens"


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

    def test_reducible_exit_3(self, capsys):
        code, out, err = run(capsys, "dual", "x1^2 - x2^2")
        assert code == 3
        assert "degenerate" in err or "collapsed" in err

    def test_parse_error_exit_2(self, capsys):
        code, out, err = run(capsys, "dual", "x1^2 *")
        assert code == 2
        assert "offset" in err

    def test_foreign_variable_exit_2(self, capsys):
        code, _, _ = run(capsys, "dual", "x + y")
        assert code == 2

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("# circle\n\nx1^2 + x2^2 - 1\n"))
        code, out, _ = run(capsys, "dual", "-")
        assert code == 0
        assert out.startswith("dual: 2*x^2 - y^2 - 2*x + 1\n")

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

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "conic-dual", "1", "1", "zebra", "0", "0", "0")
        assert code == 2

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
        scale_form = FloatForm(g, X, Y)
        for segment in segments:
            for px, py in segment:
                scale = 1.0 + scale_form.max_abs_term(px, py)
                assert abs(evaluate_float(g, {X: px, Y: py})) < 0.05 * scale

    def test_unwritable_path_exit_6(self, capsys, tmp_path):
        code, _, err = run(capsys, "plot", "x1^2 + x2^2 - 1", "--grid", "64",
                           "--out", str(tmp_path / "missing" / "out.svg"))
        assert code == 6
        assert err != ""

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
    """sha256 of stdout, generated by the code that evaluated the plot grid
    point by point with evaluate_float.  The float evaluator may get faster
    but must not move a byte; if a digest moves, find the cause, do not
    re-pin it."""

    SEC32 = "x1^3 - x1^2 - x2^2 + x2 - 1"

    @pytest.mark.parametrize("text, digest", [
        ("x1^2 + x2^2 - 1", "6252afd26804d134cc12eb569b9ea1752a42a4e3890dd1f3be1db2a2461aadac"),
        ("x1^2*x2 - 1", "2e71d7fc71811032f4cb2c9f661ac4a9fad0b5bf651c422d39c53eb5e0df69c7"),
        (SEC32, "67d9fd935da7ba461564bac2681c0a15fba510f5abd86ed955a17562d0f62c41"),
    ])
    def test_plot_default_grid(self, capsys, text, digest):
        code, out, _ = run(capsys, "plot", text)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        args = build_parser().parse_args(["plot", "--grid", str(MAX_GRID), "x1"])
        assert args.grid == MAX_GRID
        args = build_parser().parse_args(["verify", "--samples", str(MAX_SAMPLES), "x1"])
        assert args.samples == MAX_SAMPLES
        for argv in (["plot", "--grid", str(MAX_GRID + 1), "x1"],
                     ["plot", "--grid", "many", "x1"],
                     ["verify", "--samples", str(MAX_SAMPLES + 1), "x1"],
                     ["plot-envelope", "--samples", "10" * 10, "x1"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
        assert "exceeds the cap" in capsys.readouterr().err

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
        with pytest.raises(SystemExit) as exc:
            main([command, "x1^2 + x2^2 - 1", f"--window={window}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_degree_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "dual", "(x1^64)^2")
        assert code == 2
        assert "degree" in err

    def test_term_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "dual", "(x1+x2+x3+eta+xi+psi+x+y+1)^10")
        assert code == 2
        assert out == ""
        assert "term count" in err


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
