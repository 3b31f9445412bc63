"""Self-check of the benchmark's traced run.

    python3 -m pytest bench/test_selfcheck.py -q

The gated end-to-end metrics are reported in BENCHMARK.json's units, and
the host-speed probe samples in the middle of a call and then puts the
SIGALRM handler back.
For each workload the traced pass runs twice with one seed.  Every count
metric must repeat exactly, operation by operation, and every traced
dualize.dual_curve span must equal its child spans plus its self time.
dual-corpus leaves out its quintic: it takes the quartics' code path and
would add half a minute per pass.
"""

import json
import signal
import time

import pytest

import hostspeed
import run
import workloads
from tracer import Tracer, metric_value

SEED = 7
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
RESOLUTION = max(time.get_clock_info("perf_counter").resolution, 1e-9)


@pytest.fixture(scope="module", autouse=True)
def pardual():
    module = run._import_pardual()
    assert module is not None, "pardual not found under src/"
    return module


def traced(workload):
    ops = [op for op in workloads.WORKLOADS[workload](SEED) if not op.label.startswith("quintic")]
    tracer = Tracer()
    outcomes, _ = run.traced_pass(ops, tracer)
    assert [error for _, error in outcomes] == [None] * len(ops)
    counts = [(label, {name: metric_value(name, stats, op_counts) for name in COUNT_METRICS})
              for label, stats, op_counts in tracer.ops]
    return tracer, counts


def test_gated_metrics_are_reported_with_their_units():
    for entry in SPEC["end_to_end"]:
        assert run.UNITS[entry["name"]] == entry["unit"]


def test_probe_samples_inside_a_call_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        mark = probe.mark()
        end = time.perf_counter() + 10 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            sum(range(1000))
        assert probe.samples - mark[0] >= 5
        assert probe.speed(mark) > 0
        assert 0 < probe.stolen(mark) < 10 * hostspeed.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_and_spans_add_up(workload):
    first, first_counts = traced(workload)
    second, second_counts = traced(workload)
    assert first_counts == second_counts
    assert any(value for _, row in first_counts for value in row.values())

    for tracer in (first, second):
        dual_spans = 0
        for index, (name, _, start, end, self_time) in enumerate(tracer.records):
            if name != "dualize.dual_curve":
                continue
            dual_spans += 1
            children = sorted((r for r in tracer.records if r[1] == index), key=lambda r: r[2])
            for earlier, later in zip(children, children[1:]):
                assert earlier[3] <= later[2]
            assert all(start <= child[2] and child[3] <= end for child in children)
            covered = sum(child[3] - child[2] for child in children)
            assert self_time >= -RESOLUTION
            assert abs((end - start) - (covered + self_time)) <= (len(children) + 1) * RESOLUTION
        if workload != "cli-mix":  # cli-mix spans live in its child processes
            assert dual_spans > 0
