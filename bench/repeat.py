"""Repeat runner: run the benchmark several times per workload, each run in
its own process with its own seed, and report the median and quartiles of
every metric.

    python3 bench/repeat.py --runs 10
    python3 bench/repeat.py --runs 5 --workloads nf-expand --out a.json
    python3 bench/repeat.py --runs 10 --against a.json

Run from the root of the checkout.  The spread of a metric is the distance
between its first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of its median; a spread within the metric's bound from
BENCHMARK.json is required, one below a third of it is the aim.  With
`--against`, each median is also compared with the one in an earlier
`--out` file, and a change worse than the bound is reported.  The exit code
is 1 when a run failed or gave a wrong output, or a spread or a change is
beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "bench", "run.py")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write the summary as JSON")
    ap.add_argument("--against", help="an earlier --out file to compare medians with")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    metrics = {m["name"]: m for m in spec["end_to_end"]} if not args.trace else {}
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as f:
            earlier = json.load(f)
    bad = 0
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None:
                print(f"{workload} seed {seed}: FAILED")
                bad += 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if any(len(v) < 2 for v in values.values()) or not values:
            continue
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            line = (f"{workload:15s} {name:28s} median {s['median']:<12.6g} "
                    f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")
            m = metrics.get(name)
            if m:
                line += f" bound {m['bound']}"
                if name != "setup_s" and s["spread"] > m["bound"]:
                    line += "  SPREAD BEYOND BOUND"
                    bad += 1
                elif s["spread"] > m["bound"] / 3:
                    line += "  (above a third of the bound)"
            if m and earlier and name in earlier.get(workload, {}):
                old = earlier[workload][name]["median"]
                change = (s["median"] - old) / old
                worse = -change if m["better"] == "higher" else change
                line += f" change {change:+.3f}"
                if worse > m["bound"]:
                    line += "  WORSE BEYOND BOUND"
                    bad += 1
            print(line, flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
