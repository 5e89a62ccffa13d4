#!/usr/bin/env python3
"""Sensitivity self-test of the benchmark.

    python3 perfbench/test_sensitivity.py

Doubles one layer's time in the benchmark's own wrapper (`--inject
exec.vm_run`: every `VmRunner::run` call spins for as long as it took) and
checks that the end-to-end metric mapped to that layer moves past its
bound on a shortened `execute`, while the same injection leaves every
end-to-end metric of `compile`, the workload that bypasses the layer,
within its bound. On `compile` each side is the median of three runs,
taken in turn, since one short run's p99 can move past its bound by
itself. Takes about three minutes.
"""

import json
import os
import statistics
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYER = "exec.vm_run"


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def metrics(workload, seconds, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(p.stdout.rstrip("\n").split("\n")[-1])
    assert result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(base, changed, better):
    return (changed - base) / base if better == "lower" else (base - changed) / base


class Sensitivity(unittest.TestCase):
    def test_doubled_vm_run_moves_execute_pass_time(self):
        spec = bounds()["pass_s"]
        base = metrics("execute", 1)
        slow = metrics("execute", 1, inject=LAYER)
        moved = worse(base["pass_s"], slow["pass_s"], spec["better"])
        print(f"\nexecute pass_s {base['pass_s']:.4f} -> {slow['pass_s']:.4f} s ({moved:+.3f})")
        self.assertGreater(moved, spec["bound"], f"pass_s moved by {moved:.3f}")

    def test_doubled_vm_run_leaves_compile_within_bounds(self):
        runs = [(metrics("compile", 9), metrics("compile", 9, inject=LAYER)) for _ in range(3)]
        base = {k: statistics.median(r[0][k] for r in runs) for k in runs[0][0]}
        slow = {k: statistics.median(r[1][k] for r in runs) for k in runs[0][1]}
        for name, spec in bounds().items():
            if name == "setup_s":
                continue
            moved = worse(base[name], slow[name], spec["better"])
            print(f"\ncompile {name} {base[name]:.6g} -> {slow[name]:.6g} ({moved:+.3f})", end="")
            self.assertLessEqual(moved, spec["bound"], f"{name} moved by {moved:.3f}")


if __name__ == "__main__":
    unittest.main()
