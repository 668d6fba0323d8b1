"""Benchmark of the it2pf toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload press-bench --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 45

One workload runs in one fresh process.  The run builds its inputs from
``--seed`` (set up 3 times; ``setup_s`` is the median), then makes whole
passes over the inputs, one operation each, so that set-ups and passes
take about ``--seconds`` (``run_s`` is the median wall time of a pass),
and checks every output.
Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones, and the
run also reports the tracing overhead.  ``--all`` runs every workload, each
in its own process, and prints their results.  ``--tiny`` shrinks the
inputs for the smoke check (``perfbench/smoke.py``).

BLAS and OpenMP are pinned to one thread before numpy is imported.  See
README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_tmp")
SETUPS = 3    # set-ups of an untraced run; setup_s is their median


def _environment():
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": None, "blas_version": None,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "git_sha": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"], info["blas_version"] = blas.get("name"), \
            blas.get("version")
    except (TypeError, KeyError):
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            info["git_sha"] = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def _op(wl, state, key):
    t0 = time.perf_counter()
    try:
        return wl.op(state, key)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc()
        from workloads import OpResult
        return OpResult(key, time.perf_counter() - t0, ["operation raised"])


def _run_passes(wl, state, seconds, start):
    """Whole passes over the inputs: at least one, and another only while
    it is expected to end within `seconds` of `start`."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append([_op(wl, state, key) for key in range(wl.inputs)])
        now = time.perf_counter()
        if now + (now - t0) / len(passes) - start > seconds:
            return passes


def _listed(trace):
    """Names of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name, seed, seconds, trace, tiny):
    from workloads import WORKLOADS
    wl = WORKLOADS[name]
    tracer = None
    if trace:
        from layers import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
    os.makedirs(WORK_DIR, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        start = time.perf_counter()
        failures, setup_times = [], []
        for i in range(1 if trace or tiny else SETUPS):
            # each set-up builds its inputs in an empty directory
            workdir = os.path.join(rundir, str(i))
            os.makedirs(workdir)
            t0 = time.perf_counter()
            state, setup_failures = wl.setup(seed, workdir, tiny)
            setup_times.append(time.perf_counter() - t0)
            failures.append(setup_failures)
        if tracer is not None:
            setup_snap = tracer.snapshot()
        passes = _run_passes(wl, state, seconds, start)
        results = [r for p in passes for r in p]
        failures += [r.failures for r in results]
        if tracer is not None:
            final_snap = tracer.snapshot()
            tracer.uninstall()
            # one untraced operation, warm like the traced ones, is the
            # reference for the tracing overhead
            untraced = _op(wl, state, 0)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    for fs in failures:
        for f in fs:
            print(f"# check failed: {f}")
    attempted, failed = len(failures), sum(1 for fs in failures if fs)
    named = wl.summary(state, results)
    measured = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(sum(r.seconds for r in p)
                                    for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "1"),
        "fail_frac": (failed / attempted, "1"),
        "ops": (len(results), "count"),
        "passes": (len(passes), "count"),
    }
    measured.update(named)
    if tracer is not None:
        layers, absent = layer_metrics(tracer, setup_snap, final_snap,
                                       len(results))
        measured.update(layers)
        measured["trace.overhead_frac"] = (
            passes[-1][0].seconds / untraced.seconds - 1.0, "1")
        if absent:
            print("# absent (wrapped name not found): " + " ".join(absent))

    print(f"# workload {name} seed {seed} trace {int(trace)}")
    print("# operation seconds: "
          + " ".join(f"{r.seconds:.4f}" for r in results))
    for key, (value, unit) in measured.items():
        print(f"#   {key:<36} {value:>14.6g} {unit}")
    reported = {k: measured[k] for k in _listed(trace) if k in measured}
    bad = [k for k, (v, _) in reported.items() if not math.isfinite(v)]
    if bad:
        print("error: metrics could not be measured: " + " ".join(bad),
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in reported.items()}}))
    return 0


def run_all(args):
    """Every workload, each in a fresh process of its own."""
    from workloads import WORKLOADS
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, cwd=ROOT, timeout=900)
        code = code or proc.returncode
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "it2pf")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print("# env: " + json.dumps(_environment()))
    if args.all:
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
