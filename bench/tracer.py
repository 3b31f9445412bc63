"""Spans and counts around pardual's public functions, from outside the package.

A Tracer rebinds module attributes (for example ``pardual.dualize.resultant``
and ``pardual.plot.evaluate_float``) to wrappers that time each call.  No file
of the package changes; ``restore`` puts the originals back.  Spans nest on a
stack, so each span knows its parent and its self time (its duration minus
the time of the spans it contains).  Counts are taken from arguments and
results after each operation ends, so computing them costs no span any time.

Statistics are kept per operation: a span name maps to [calls, seconds,
self seconds], a count name maps to a number.  ``merged`` folds them together.
"""

from __future__ import annotations

import importlib
import time

clock = time.perf_counter

# Hot leaf functions get no span record of their own, only their statistics.
HOT = frozenset({"polyring.evaluate_float"})

# Counts whose aggregate over several calls is the maximum, not the sum.
MAX_COUNTS = frozenset({
    "elimination.sylvester.size",
    "elimination.resultant.degree",
    "elimination.resultant.coeff_bits_max",
})

# Prefix of the stderr line on which a traced child reports its statistics.
PAYLOAD_PREFIX = "bench-trace: "


def _resultant_counts(tracer, args, result):
    forms = [getattr(form, "degree", None) for form in args[:2]]
    if None not in forms and len(forms) == 2:
        tracer.count("elimination.sylvester.size", sum(forms))
    terms = getattr(result, "terms", None)
    if terms is None:
        return
    degree = max((sum(exp for _, exp in mono) for mono in terms), default=0)
    bits = max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in terms.values()), default=0)
    tracer.count("elimination.resultant.degree", degree)
    tracer.count("elimination.resultant.terms", len(terms))
    tracer.count("elimination.resultant.coeff_bits_max", bits)


def _dual_counts(tracer, args, result):
    power = getattr(result, "psi_power_removed", None)
    if power is not None:
        tracer.count("dualize.psi_power", power)


def _verify_counts(tracer, args, result):
    tracer.count("dualize.samples.tested", result.tested)
    tracer.count("dualize.samples.skipped", result.skipped)


def _trace_counts(tracer, args, result):
    tracer.count("plot.trace_implicit.segments", len(result))


def _render_counts(tracer, args, result):
    tracer.count("plot.render_svg.bytes", len(result.encode("utf-8")))


def _stage(function):
    """Span name of a call made inside dual_curve, found from what it calls.

    homogenize and the substitute before the resultant are the lift;
    divide_out_variable_power and the content removal after the resultant
    are the psi strip; the substitute after the resultant is the image map;
    a content removal after the image map is normalization.
    """
    def name(tracer):
        frame = tracer.enclosing("dualize.dual_curve")
        phase = frame.phase if frame else "lift"
        if function == "divide_out_variable_power":
            return "dualize.psi_strip"
        if function == "substitute" and phase != "lift":
            frame.phase = "image"
            return "dualize.image_map"
        if function == "content_and_primitive" and phase != "lift":
            return "dualize.normalize" if phase == "image" else "dualize.psi_strip"
        return "dualize.lift"
    return name


def _enter_resultant(tracer):
    frame = tracer.enclosing("dualize.dual_curve")
    if frame:
        frame.phase = "strip"
    return "elimination.resultant"


# (module, attribute, span name or function of the tracer giving it, counts).
# A function is wrapped under every name its callers look it up by.
WRAPS = (
    ("pardual.polyparse", "parse", "polyparse.parse", None),
    ("pardual.cli", "parse", "polyparse.parse", None),
    ("pardual.dualize", "dual_curve", "dualize.dual_curve", _dual_counts),
    ("pardual.cli", "dual_curve", "dualize.dual_curve", _dual_counts),
    ("pardual.dualize", "homogenize", _stage("homogenize"), None),
    ("pardual.dualize", "substitute", _stage("substitute"), None),
    ("pardual.dualize", "divide_out_variable_power", _stage("divide_out_variable_power"), None),
    ("pardual.dualize", "content_and_primitive", _stage("content_and_primitive"), None),
    ("pardual.dualize", "resultant", _enter_resultant, _resultant_counts),
    ("pardual.elimination", "resultant", "elimination.resultant", _resultant_counts),
    ("pardual.elimination", "sylvester_matrix", "elimination.sylvester_matrix", None),
    ("pardual.elimination", "determinant", "elimination.determinant", None),
    ("pardual.dualize", "sample_curve", "dualize.sample_curve", None),
    ("pardual.cli", "sample_curve", "dualize.sample_curve", None),
    ("pardual.plot", "sample_curve", "dualize.sample_curve", None),
    ("pardual.dualize", "verify_duality", "dualize.verify_duality", _verify_counts),
    ("pardual.cli", "verify_duality", "dualize.verify_duality", _verify_counts),
    ("pardual.dualize", "evaluate_float", "polyring.evaluate_float", None),
    ("pardual.plot", "evaluate_float", "polyring.evaluate_float", None),
    ("pardual.plot", "trace_implicit", "plot.trace_implicit", _trace_counts),
    ("pardual.cli", "trace_implicit", "plot.trace_implicit", _trace_counts),
    ("pardual.plot", "render_svg", "plot.render_svg", _render_counts),
    ("pardual.cli", "render_svg", "plot.render_svg", _render_counts),
    ("pardual.plot", "envelope_scene", "plot.envelope_scene", None),
    ("pardual.cli", "envelope_scene", "plot.envelope_scene", None),
    ("pardual.cli", "main", "cli.main", None),
)


class _Frame:
    __slots__ = ("name", "start", "child", "record", "phase")

    def __init__(self, name, start, record):
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record
        self.phase = "lift"


class Tracer:
    """Span stack, span records and per-operation statistics."""

    def __init__(self):
        self.stack: list[_Frame] = []
        # [name, parent record index or None, start, end, self seconds]
        self.records: list[list] = []
        # (label, span stats, counts) for each operation, in run order
        self.ops: list[tuple[str, dict, dict]] = []
        self.absent: list[str] = []
        self._stats: dict = {}
        self._counts: dict = {}
        self._deferred: list = []
        self._originals: list = []

    # -- spans ------------------------------------------------------------

    def enclosing(self, name):
        for frame in reversed(self.stack):
            if frame.name == name:
                return frame
        return None

    def _open(self, name):
        parent = self.stack[-1].record if self.stack else None
        start = clock()
        self.stack.append(_Frame(name, start, len(self.records)))
        self.records.append([name, parent, start, 0.0, 0.0])

    def _close(self):
        end = clock()
        frame = self.stack.pop()
        duration = end - frame.start
        self_time = duration - frame.child
        entry = self.records[frame.record]
        entry[3] = end
        entry[4] = self_time
        if self.stack:
            self.stack[-1].child += duration
        stat = self._stats.setdefault(frame.name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += self_time

    def count(self, name, value):
        _fold_count(self._counts, name, value)

    def add_stats(self, stats, counts):
        """Fold statistics reported by a traced child into this operation."""
        _fold(self._stats, self._counts, stats, counts)

    # -- operations -------------------------------------------------------

    def begin_op(self, label):
        self._stats = {}
        self._counts = {}
        self.ops.append((label, self._stats, self._counts))
        self._open("bench.op")

    def end_op(self):
        self._close()
        deferred, self._deferred = self._deferred, []
        for observe, args, result in deferred:
            observe(self, args, result)

    def payload(self):
        """Statistics of the last operation without its root span, for a
        child to report to the parent that times it."""
        label, stats, counts = self.ops[-1]
        stats = {name: stat for name, stat in stats.items() if name != "bench.op"}
        return {"stats": stats, "counts": counts, "absent": self.absent}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, original, span, observe):
        tracer = self
        if isinstance(span, str) and span in HOT:
            def hot(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stat = tracer._stats.setdefault(span, [0, 0.0, 0.0])
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += duration
                    if tracer.stack:
                        tracer.stack[-1].child += duration
            return hot

        def wrapper(*args, **kwargs):
            tracer._open(span if isinstance(span, str) else span(tracer))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close()
            if observe is not None:
                tracer._deferred.append((observe, args, result))
            return result
        return wrapper

    def install(self):
        """Wrap every attribute in WRAPS that exists; list the rest as absent.

        All modules are imported first, so that no module binds a name
        (``from .polyparse import parse``) that is wrapped already.
        """
        modules = {name: importlib.import_module(name) for name, *_ in WRAPS}
        for module_name, attribute, span, observe in WRAPS:
            module = modules[module_name]
            original = getattr(module, attribute, None)
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            self._originals.append((module, attribute, original))
            setattr(module, attribute, self._wrap(original, span, observe))

    def restore(self):
        for module, attribute, original in reversed(self._originals):
            setattr(module, attribute, original)
        self._originals = []


def _fold_count(counts, name, value):
    if name in MAX_COUNTS:
        counts[name] = max(counts.get(name, value), value)
    else:
        counts[name] = counts.get(name, 0) + value


def _fold(stats, counts, more_stats, more_counts):
    for name, (calls, total, self_time) in more_stats.items():
        stat = stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += calls
        stat[1] += total
        stat[2] += self_time
    for name, value in more_counts.items():
        _fold_count(counts, name, value)


def merged(ops):
    """Span statistics and counts summed (or maximised) over operations."""
    stats: dict = {}
    counts: dict = {}
    for _, op_stats, op_counts in ops:
        _fold(stats, counts, op_stats, op_counts)
    return stats, counts


def metric_value(name, stats, counts):
    """Value of a per-layer metric name such as ``plot.trace_implicit.self_s``."""
    for suffix, index in ((".self_s", 2), (".s", 1), (".calls", 0)):
        if name.endswith(suffix):
            stat = stats.get(name[:-len(suffix)])
            return stat[index] if stat else 0
    return counts.get(name, 0)
