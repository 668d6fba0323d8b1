"""Smoke check of the benchmark itself.

Runs every workload at its tiny size, untraced and traced, and checks that
each run's output checks pass, that it prints every metric that
BENCHMARK.json lists, with that unit, in its closing JSON line, and that
it prints the workload's other named metrics and every layer's count,
inclusive and self time with a unit.  Run from the root of a checkout:

    python3 perfbench/smoke.py
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics each workload prints besides the ones BENCHMARK.json lists.
NAMED = {
    "press-bench": ("fail_frac", "ops", "passes", "srmse",
                    "cells_lkv_not_beaten"),
    "peg-episodes": ("fail_frac", "ops", "passes", "tick_p50_ms",
                     "tick_p99_ms", "ticks", "completion_rate",
                     "completion_time_s", "handover_ratio"),
}
LINE = re.compile(r"^#\s+(\S+)\s+(\S+)\s+(\S+)$")


def check(workload, trace, spec):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
            "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{result.get('failed')} of "
                        f"{result.get('attempted')} operations failed")
        problems += [line for line in lines
                     if line.startswith("# check failed:")]
    listed = spec["per_layer" if trace else "end_to_end"]
    for m in listed:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"{m['name']} missing from the JSON line")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, "
                            f"listed as {m['unit']!r}")
    printed = {}
    for line in lines[:-1]:
        match = LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    wanted = list(NAMED.get(workload, ())) + [m["name"] for m in listed]
    if trace:
        sys.path.insert(0, HERE)
        from layers import TARGETS
        wanted += [f"{t[0]}.{k}" for t in TARGETS
                   for k in ("calls", "s", "self_s")]
        wanted.append("trace.overhead_frac")
    problems += [f"{name} not printed with a unit" for name in wanted
                 if not printed.get(name)]
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
