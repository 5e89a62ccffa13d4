#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile|schedule|execute \
        --seed N --seconds S --trace 0|1 [--inject SPAN]

Run from the root of the repository. Builds `perfbench/` (a cargo package
of its own that depends on the repository's crates by path) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload,
passes its information lines through, and prints as its last line the
result object with the metrics BENCHMARK.json names for the mode, with
their units from BENCHMARK.json. Exits non-zero when the build fails, the
run fails or times out, an output differs from its reference, or the
binary's metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "inl-perfbench")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def result_for(line, trace):
    """The result object for the mode, from the binary's last line.

    The binary reports every metric it measured as `name: value`;
    BENCHMARK.json is the one list of metric names and units. An
    end-to-end metric the binary did not report is an error; a per-layer
    metric of a layer the workload never calls reads 0. A name in neither
    list is an error, so a metric renamed on one side only shows.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError:
        fail("the last line of the output is not the result object")
    if set(raw) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(raw)}")
    s = spec()
    known = {m["name"] for m in s["end_to_end"] + s["per_layer"]}
    unknown = sorted(set(raw["metrics"]) - known)
    if unknown:
        fail(f"metrics {unknown} are not in BENCHMARK.json")
    metrics = {}
    for m in s["per_layer" if trace else "end_to_end"]:
        value = raw["metrics"].get(m["name"])
        if value is None:
            if not trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return dict(raw, metrics=metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["compile", "schedule", "execute"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject", help="double the time of every call wrapped under this span name")
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(target_dir)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(target_dir, "perfbench", f"spans-{args.workload}-{args.seed}.jsonl")
        cmd += ["--spans-out", spans]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        # the binary prints its result even when an output is wrong; keep
        # it off the last line so a failed run never reads as a result
        print(f"# exit code {proc.returncode}: {lines[-1]}")
        fail("an output differs from its reference" if proc.returncode == 1 else "the run failed")
    print(json.dumps(result_for(lines[-1], args.trace)), flush=True)


if __name__ == "__main__":
    main()
