"""Benchmark of the pbw package: one workload, one seed, one process.

    python3 bench/run.py --workload check-pass --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  The run is single-threaded and closed-loop with one client: the
next op starts when the previous one returns.  It sets up (several times,
reporting the median), runs every op once untimed and checks each output
in full, then repeats whole sweeps of the op list until `--seconds` have
passed, comparing every output with the checked one.

With `--trace 0` it reports the end-to-end metrics.  Latency and throughput
are taken over each op's best latency in the run's sweeps, because the
speed of a shared host drifts between runs by far more than the code's
cost does (bench/README.md has the figures); with `--trace 0` the set-up is
also repeated about once a second between sweeps, so that its median
covers the same stretch of time as the sweeps.  With `--trace 1` it
runs half the time untraced and half traced, and reports the per-layer
metrics, including the tracing overhead; the spans go to
`bench/_work/trace-<workload>-seed<seed>.json`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every output
was correct and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

import cases
import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", "_work")
MODULES = ("algebra", "cli", "criterion", "datumio", "exprs", "oracle", "presets", "rewrite", "scalars")
SETUP_REPS = 3             # set-ups before the sweeps
SETUP_EVERY_S = 1.0        # and one more between sweeps this often


def _pbw_modules():
    return {n: m for n, m in sys.modules.items() if n == "pbw" or n.startswith("pbw.")}


def import_pbw():
    """Import the package afresh from src/, dropping any loaded copy."""
    for name in _pbw_modules():
        del sys.modules[name]
    pbw = types.SimpleNamespace(**{m: importlib.import_module(f"pbw.{m}") for m in MODULES})
    if not pbw.cli.__file__.startswith(os.path.join(SRC, "pbw") + os.sep):
        raise SystemExit(f"error: pbw was imported from {pbw.cli.__file__}, not from {SRC}")
    return pbw


def set_up(workload, seed, workdir):
    """Import, build the presets, generate the seeded cases and write the
    datum files; returns (seconds, package, input digest, ops)."""
    t0 = time.perf_counter()
    pbw = import_pbw()
    generated = cases.generate(workload, seed, pbw.presets, pbw.datumio)
    ops = workloads.make_ops(generated, workdir)
    return time.perf_counter() - t0, pbw, cases.digest(generated), ops


def repeat_set_up(workload, seed, workdir):
    """Time one more set-up in `workdir`, then put back the package copy
    the sweeps are using; returns (seconds, input digest)."""
    loaded = _pbw_modules()
    try:
        seconds, _, digest, _ = set_up(workload, seed, workdir)
    finally:
        for name in _pbw_modules():
            del sys.modules[name]
        sys.modules.update(loaded)
        gc.collect()
    return seconds, digest


class Runner:
    def __init__(self, ops, pbw):
        self.ops = ops
        self.pbw = pbw
        self.expected = []
        self.attempted = 0
        self.failures = []

    def _fail(self, op, why):
        self.failures.append(f"{op.label}: {why}")
        if len(self.failures) <= 5:
            print(f"FAILED {op.label}: {why}", file=sys.stderr)

    def _call(self, op, call):
        self.attempted += 1
        try:
            return call(op)
        except Exception:
            self._fail(op, traceback.format_exc(limit=3))
            return None

    def warm_up(self):
        """Run each op once and check its output in full."""
        for op in self.ops:
            result = self._call(op, lambda o: workloads.run_op(o, self.pbw))
            if result is not None:
                error = workloads.verify(op, *result, self.pbw)
                if error:
                    self._fail(op, error)
            self.expected.append(result)

    def sweeps(self, seconds, call, between=None):
        """Whole sweeps of the op list until `seconds` have passed; every
        output must equal the checked one.  `between()`, if given, runs
        after each sweep but the last, off the clock.  Returns the op
        latencies (ms), sweep after sweep."""
        clock = time.perf_counter_ns
        latencies = []
        start = time.perf_counter()
        while True:
            for i, op in enumerate(self.ops):
                t0 = clock()
                result = self._call(op, lambda o: call(i, o))
                latencies.append((clock() - t0) / 1e6)
                if result is not None and result != self.expected[i]:
                    self._fail(op, f"output differs from the checked output: {result!r:.200}")
            if time.perf_counter() - start >= seconds:
                return latencies
            if between:
                between()


def throughput(latencies):
    return len(latencies) / (sum(latencies) / 1000)


def best_latencies(latencies, n_ops):
    """Each op's lowest latency over the sweeps.  Contention from other
    tenants only ever adds time, and on a shared host it comes in phases
    of seconds to minutes; the best of some thirty or more repetitions
    reflects the code's own cost far more steadily than a median or mean
    of all samples, which follows the phase the run happened to fall in."""
    return [min(latencies[i::n_ops]) for i in range(n_ops)]


def p50_p90(latencies):
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end(best, setup_times):
    """The end-to-end metrics from each op's best latency and the set-up
    times."""
    p50, p90 = p50_p90(best)
    return {
        "ops_per_s": {"value": throughput(best), "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "op_p90_ms": {"value": p90, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def traced_phase(args, runner, input_digest, untraced):
    """Run the same sweeps under the tracer; returns the traced latencies
    and the per-layer metrics."""
    tracer = Tracer()
    try:
        tracer.install()
        generated = cases.generate(args.workload, args.seed, runner.pbw.presets, runner.pbw.datumio)
        presets_ns = tracer.total_ns["presets.build"]
        if cases.digest(generated) != input_digest:
            runner.failures.append("traced set-up generated different inputs")
        tracer.reset()

        def call(i, op):
            layer = "op.cli" if op.argv else "op.library"
            return tracer.run_op(i, layer, workloads.run_op, op, runner.pbw)

        traced = runner.sweeps(args.seconds / 2, call)
    finally:
        tracer.uninstall()
    n = len(runner.ops)
    overhead = sum(best_latencies(traced, n)) / sum(best_latencies(untraced, n)) - 1
    n_cli = sum(1 for i in range(len(traced)) if runner.ops[i % len(runner.ops)].argv)
    metrics = tracer.metrics(len(traced), n_cli, presets_ns, overhead)
    origin = tracer.spans[0][1] if tracer.spans else 0
    with open(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as f:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "ops": [op.label for op in runner.ops],
            "layers": tracer.summary(),
            "counts": dict(tracer.counts),
            "span_fields": ["layer", "start_us", "end_us", "parent", "op"],
            "spans": [
                [name, (s - origin) / 1e3, (e - origin) / 1e3, parent, op]
                for name, s, e, parent, op in tracer.spans
            ],
        }, f)
    print(f"traced: {len(traced)} ops, {throughput(traced):.4g} ops/s untraced {throughput(untraced):.4g}, "
          f"{len(tracer.spans)} spans")
    return traced, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "pbw", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a pbw source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    setup_dir = os.path.join(workdir, "setup")
    os.makedirs(setup_dir, exist_ok=True)
    try:
        seconds, pbw, digest, ops = set_up(args.workload, args.seed, workdir)
        setup_times = [seconds]
        for _ in range(SETUP_REPS - 1):
            seconds, other = repeat_set_up(args.workload, args.seed, setup_dir)
            setup_times.append(seconds)
            if other != digest:
                raise SystemExit("error: set-up is not deterministic for this seed")

        runner = Runner(ops, pbw)
        runner.warm_up()
        last_set_up = time.perf_counter()

        def set_up_again():
            nonlocal last_set_up
            if time.perf_counter() - last_set_up < SETUP_EVERY_S:
                return
            seconds, other = repeat_set_up(args.workload, args.seed, setup_dir)
            setup_times.append(seconds)
            if other != digest:
                runner.failures.append("a repeated set-up generated different inputs")
            last_set_up = time.perf_counter()

        if args.trace:
            untraced = runner.sweeps(args.seconds / 2, lambda i, op: workloads.run_op(op, pbw))
            latencies, metrics = traced_phase(args, runner, digest, untraced)
            latencies = untraced + latencies
        else:
            latencies = runner.sweeps(args.seconds, lambda i, op: workloads.run_op(op, pbw), set_up_again)
            metrics = end_to_end(best_latencies(latencies, len(ops)), setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    p50, p90 = p50_p90(latencies)
    outputs = cases.digest([list(r) if r else None for r in runner.expected])
    failed = len(runner.failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} ops per sweep, {len(latencies) // len(ops)} sweeps, {len(setup_times)} set-ups")
    print(f"inputs sha256 {digest}")
    print(f"outputs sha256 {outputs}")
    print(f"all {len(latencies)} samples, not only each op's best: {throughput(latencies):.6g} ops/s, "
          f"p50 {p50:.6g} ms, p90 {p90:.6g} ms, {sum(1 for x in latencies if x > p90)} samples beyond p90")
    print(f"failed_share {failed / runner.attempted:.6g} ({failed} of {runner.attempted} ops)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
