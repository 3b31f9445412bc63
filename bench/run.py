"""pardual benchmark: closed-loop timing of the package's public functions.

    python3 bench/run.py --workload dual-corpus --seed 1 --seconds 20 --trace 0

One caller runs the workload's operations one at a time, in whole passes
over its input list, until --seconds have passed and at least two passes
are done.  The second pass makes the output-repeat check possible and gives
dual-corpus enough operations for a tail percentile.  While the passes run,
hostspeed.Probe samples the host's speed; ops_per_s counts operations per
second on the reference host, and the report also prints the wall-clock
rate.  Outputs are checked after the timed phase.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics: with
--trace 0 the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics, measured by one more pass with span wrappers installed
(see tracer.py).

``--workload all`` runs every workload in turn, each in its own process.
``--setup-only`` builds the inputs, prints "ready" and exits; the benchmark
times such children to measure set-up.

Only the standard library is used.  pardual is imported from src/ next to
this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads
from tracer import Tracer, merged, metric_value

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 2
SETUP_RUNS = 9
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60

# Every end-to-end metric the report prints.  BENCHMARK.json gates the ones
# whose spread between runs fits a bound; the latency quantiles are printed
# only (see README.md, "Bounds and measured spread").
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
         "latency_tail_s": "s", "peak_rss_mb": "MiB"}

clock = time.perf_counter


def _import_pardual():
    """pardual from this checkout's src/, or None."""
    if not (SRC / "pardual" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import pardual
    import pardual.cli  # every module, so no timed operation pays an import
    if Path(pardual.__file__).resolve().parent.parent != SRC:
        return None
    return pardual


def _context(pardual) -> dict:
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "pardual_file": pardual.__file__,
    }


def _run_op(op, tracer):
    try:
        return op.call(tracer), None
    except Exception:
        return None, traceback.format_exc()


def timed_passes(ops, seconds, probe):
    """Whole passes until `seconds` have passed and MIN_PASSES are done.

    Latencies and the timed phase leave out the time the probe's samples
    took; the last value returned is the mean host speed over the phase.
    """
    latencies, walls, passes = [], [], []
    phase = probe.mark()
    start = clock()
    while len(passes) < MIN_PASSES or clock() - start < seconds:
        pass_start, pass_mark = clock(), probe.mark()
        outcomes = []
        for op in ops:
            op_start, op_mark = clock(), probe.mark()
            outcomes.append(_run_op(op, None))
            latencies.append(clock() - op_start - probe.stolen(op_mark))
        walls.append(clock() - pass_start - probe.stolen(pass_mark))
        passes.append(outcomes)
    timed_s = clock() - start - probe.stolen(phase)
    return latencies, walls, passes, timed_s, probe.speed(phase)


def traced_pass(ops, tracer):
    tracer.install()
    try:
        start = clock()
        outcomes = []
        for op in ops:
            tracer.begin_op(op.label)
            try:
                outcomes.append(_run_op(op, tracer))
            finally:
                tracer.end_op()
        return outcomes, clock() - start
    finally:
        tracer.restore()


def check_outputs(ops, passes):
    """Failures per (op, pass) and the digest of the reference outputs.

    An op's reference is its first output that did not raise; it must pass
    the op's check, and every other pass must reproduce it byte for byte.
    """
    failures = []
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        results = [outcomes[i] for outcomes in passes]
        reference = next((op.canonical(raw) for raw, error in results if error is None), None)
        reason = None
        if reference is not None:
            raw = next(raw for raw, error in results if error is None)
            reason = op.check(raw)
        digest.update(f"{op.label}\n".encode())
        digest.update(reference if reference is not None else b"<raised>\n")
        for p, (raw, error) in enumerate(results):
            if error is not None:
                failures.append((op.label, p, error.strip().splitlines()[-1]))
            elif reason is not None:
                failures.append((op.label, p, reason))
            elif op.canonical(raw) != reference:
                failures.append((op.label, p, "output differs from the first pass"))
    return failures, digest.hexdigest()


def tail(latencies):
    """(percentile, value, samples beyond): the highest integer percentile
    with at least TAIL_BEYOND samples beyond its nearest rank, or None when
    there are too few samples for it to lie above the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return None
    p = 100 * (n - TAIL_BEYOND) // n
    rank = -(-p * n // 100)
    return p, ordered[rank - 1], n - rank


def measure_setup(workload, seed):
    """Median of SETUP_RUNS child processes timed from start to "ready".

    Wall time, not corrected for host speed: the parent's samples follow
    the parent's core, not the child's, and kernel calls timed inside a
    set-up child did not follow its set-up time either.
    """
    times = []
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_RUNS):
        start = clock()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = clock() - start
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def _metric(spec_entry, value):
    return {"value": value, "unit": spec_entry["unit"]}


def run_workload(args, spec, pardual):
    ops = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"context: {json.dumps(_context(pardual))}")
    with hostspeed.Probe() as probe:
        latencies, walls, passes, timed_s, speed = timed_passes(ops, args.seconds, probe)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-mix" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    if args.trace:
        tracer = Tracer()
        traced, traced_s = traced_pass(ops, tracer)
        passes.append(traced)
    failures, digest = check_outputs(ops, passes)
    attempted = len(ops) * len(passes)
    for label, p, reason in failures:
        print(f"FAILED {label} (pass {p + 1}): {reason}", file=sys.stderr)
    timed_failed = sum(1 for _, p, _ in failures if p < len(walls))
    print(f"passes: {len(walls)} over {len(ops)} inputs, timed {timed_s:.3f} s")
    print(f"digest: sha256:{digest}")
    print(f"fail_ratio: {len(failures) / attempted:.6g} ({len(failures)} of {attempted} failed)")

    if args.trace:
        metrics = _layer_metrics(spec, tracer, traced_s - statistics.median(walls))
    else:
        ops_per_s_wall = (len(latencies) - timed_failed) / timed_s
        values = {
            "setup_s": measure_setup(args.workload, args.seed),
            "ops_per_s": ops_per_s_wall / speed,
            "latency_p50_s": statistics.median(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        notes = {
            "setup_s": f"wall, median of {SETUP_RUNS} set-ups",
            "ops_per_s": f"{ops_per_s_wall:.6g} 1/s wall at host speed {speed:.4g}",
            "latency_p50_s": f"wall, {len(latencies)} operations",
            "peak_rss_mb": ("largest child process" if args.workload == "cli-mix"
                            else "this process"),
        }
        quantile = tail(latencies)
        if quantile is not None:
            p, values["latency_tail_s"], beyond = quantile
            notes["latency_tail_s"] = f"wall, p{p}, {beyond} of {len(latencies)} operations beyond it"
        for name, value in values.items():
            print(f"{name:<16} {value:>12.6g} {UNITS[name]:<6} {notes.get(name, '')}")
        if quantile is None:
            print(f"latency_tail_s   omitted: {len(latencies)} operations are too few for a tail")
        metrics = {entry["name"]: _metric(entry, values[entry["name"]])
                   for entry in spec["end_to_end"]}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def _layer_metrics(spec, tracer, overhead_s):
    for label, stats, counts in tracer.ops:
        row = {name: [calls, round(total, 6), round(self_time, 6)]
               for name, (calls, total, self_time) in sorted(stats.items())}
        print(f"op {label}: spans {json.dumps(row)} counts {json.dumps(counts, sort_keys=True)}")
    stats, counts = merged(tracer.ops)
    counts["trace.overhead_s"] = overhead_s
    if tracer.absent:
        print(f"absent spans: {' '.join(tracer.absent)}")
    for part, whole in (("elimination.determinant", "dualize.dual_curve"),
                        ("polyring.evaluate_float", "plot.trace_implicit")):
        if stats.get(whole, [0, 0.0])[1] > 0:
            share = stats.get(part, [0, 0.0])[1] / stats[whole][1]
            print(f"share: {part} is {share:.1%} of {whole}")
    metrics = {}
    for entry in spec["per_layer"]:
        value = metric_value(entry["name"], stats, counts)
        metrics[entry["name"]] = _metric(entry, value)
        print(f"{entry['name']:<40} {value:>14.6g} {entry['unit']}")
    return metrics


def run_all(args, spec):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (workload["name"] for workload in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pardual = _import_pardual()
    if pardual is None:
        print(f"error: no pardual package under {SRC}", file=sys.stderr)
        return 2
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        print(f"error: {spec_file} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed)
        print("ready", flush=True)
        return 0
    result = run_workload(args, spec, pardual)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
