#!/usr/bin/env python3
"""Check that the benchmark is steady and that two sets of runs agree.

    python3 perfbench/steady.py [--workloads compile,schedule,execute]
        [--runs 10] [--sets 2] [--first-seed 1] [--seconds S] [--counts]

For each workload and set, runs `perfbench/run.py` once per seed and
reports, per end-to-end metric, the median and the spread: the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median. Every spread, `setup_s` included, must stay within
the metric's bound in BENCHMARK.json; with two sets, the second set's median
must not be worse than the first's by more than the bound. With `--counts`
each set also makes one traced run, and every count both traced runs mark
`exact` must read the same in both sets (one marked `exact` in only one
run is listed as varying). Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    lines = p.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def exact_counts(info_lines):
    """(workload, program, name) -> value for count rows marked exact."""
    out = {}
    for line in info_lines:
        parts = line.split()
        if len(parts) == 8 and parts[1] == "count" and parts[7] == "exact":
            out[tuple(parts[2:5])] = parts[5]
    return out


def worse(name, a, b, better):
    """How much b is worse than a, as a share of a."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="compile,schedule,execute")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--counts", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w in args.workloads.split(","):
        medians, counts = [], []
        for k in range(args.sets):
            values = {name: [] for name in metrics}
            for r in range(args.runs):
                seed = args.first_seed + k * args.runs + r
                result, _ = run(w, seed, seconds, 0)
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: incorrect result {result}")
                    ok = False
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
            med = {}
            for name, m in metrics.items():
                v = values[name]
                q1, q2, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / q2
                med[name] = q2
                flag = ""
                if spread > m["bound"]:
                    flag, ok = "  SPREAD OVER BOUND", False
                elif spread > m["bound"] / 3:
                    flag = "  (over a third of the bound)"
                print(f"{w} set {k} {name:<13} median {q2:.6g} spread {spread:.4f} bound {m['bound']}{flag}")
                print(f"    values {' '.join(f'{x:.5g}' for x in v)}")
            medians.append(med)
            if args.counts:
                _, info = run(w, args.first_seed, seconds, 1)
                counts.append(exact_counts(info))
        if args.sets == 2:
            for name, m in metrics.items():
                d = worse(name, medians[0][name], medians[1][name], m["better"])
                flag = "" if d <= m["bound"] else "  DISAGREE"
                ok &= not flag
                print(f"{w} {name:<13} second median worse by {d:+.4f} (bound {m['bound']}){flag}")
            if args.counts:
                # a count that repeated within one run but not the other
                # varies; the rest must agree exactly
                keys = set(counts[0]) & set(counts[1])
                once = sorted(set(counts[0]) ^ set(counts[1]))
                differ = [k for k in keys if counts[0][k] != counts[1][k]]
                print(f"{w}: {len(keys)} exact counts, {len(differ)} differ between sets; "
                      f"{len(once)} repeated within only one set's run")
                for k in once[:20]:
                    print(f"  varies: {k}")
                for k in sorted(differ)[:20]:
                    print(f"  DIFFER {k}: {counts[0][k]} vs {counts[1][k]}")
                ok &= not differ
    print("STEADY" if ok else "NOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
