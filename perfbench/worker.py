"""One benchmark process: set up a workload and, in the run phase, measure its ops.

    python3 perfbench/worker.py --phase setup --workload NAME --seed N
    python3 perfbench/worker.py --phase run --workload NAME --seed N --seconds S --trace 0|1

run.py starts this script in a fresh interpreter so that set-up time
includes `import gridcap`. The package is imported from the `src/`
directory next to this one, never from an installed copy. The last line on
standard output is one JSON object for run.py.

The run phase is a closed loop: the workload's op kinds run in turn, one at
a time, for as many rounds as fit in `--seconds` at the pace of the last
round (at least one round; two with tracing). With `--trace 1` rounds alternate between traced and untraced, so
one run yields the per-layer spans and the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-trace")
MODULES = ("io_formats", "grid_model", "ld_rates", "region", "montecarlo", "streams", "exact1d")


def _blas(np):
    """BLAS library name, version and the thread count it reports."""
    import ctypes

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libraries):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _src_lines():
    total = 0
    for folder, _, files in os.walk(os.path.join(SRC, "gridcap")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    import subprocess

    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unavailable"


def facts(workload, seed):
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(np),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": _src_lines(),
        "workload": workload.facts(),
    }


def reference_kernel():
    """Fixed work that uses no gridcap code: a yardstick for the machine's current speed.

    Shared machines drift in speed by tens of percent over minutes, and the
    drift moves every op of a run together. Timing this kernel before each
    op samples the drift over the same minutes, and an op's time divided by
    the kernel's time no longer depends on it. The mix follows the ops:
    NumPy on large arrays, a dense SVD and inverse on both BLAS threads,
    NumPy calls on small arrays from a Python loop (as in the Monte Carlo
    stepping), and plain interpreted Python, each a similar share of the time.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 100_000)
    total = 0.0
    for k in range(5):
        total += float(np.sum(np.sqrt(x + k) * np.exp(-x)))
    a = np.cos(np.arange(200 * 200, dtype=float)).reshape(200, 200) + 200.0 * np.eye(200)
    total += float(np.sum(np.linalg.svd(a, compute_uv=False))) + float(np.sum(np.linalg.inv(a)))
    m = np.cos(np.arange(32, dtype=float)).reshape(4, 8) / 4.0
    v = np.ones((128, 4))
    peak = np.zeros(128)
    for _ in range(500):
        v = 0.9 * v + 0.1
        np.maximum(peak, np.max((v @ m) ** 2, axis=1), out=peak)
    count = 0
    for i in range(100_000):
        count += i * i % 7
    return total + float(peak.sum()) + count


def measure(workload, tracer, seconds, traced_rounds):
    """Run the closed loop; return op times per kind (untraced, traced), reference times, counts and failures."""
    times = {kind: [] for kind in workload.op_kinds}
    references = []
    traced_times = {kind: [] for kind in workload.op_kinds}
    attempted = 0
    failures = []
    rounds = 0
    start = round_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        # start another round only if, at the last round's pace, it ends within `seconds`
        if rounds >= (2 if traced_rounds else 1) and 2 * now - round_start - start > seconds:
            break
        round_start = now
        traced = traced_rounds and rounds % 2 == 0
        tracer.enabled = traced
        for kind in workload.op_kinds:
            tracer.op = attempted
            attempted += 1
            began = time.perf_counter()
            reference_kernel()
            references.append(time.perf_counter() - began)
            try:
                began = time.perf_counter()
                with tracer.span(f"bench.{kind}"):
                    result = workload.run_op(kind)
                elapsed = time.perf_counter() - began
                if traced:
                    workload.inner(kind, result)
                problems = workload.check(kind, result)
            except Exception:  # a raising op is a failed op; the loop goes on measuring
                problems = [traceback.format_exc()]
            if problems:
                failures.append((attempted - 1, kind, problems))
            else:
                (traced_times if traced else times)[kind].append(elapsed)
        rounds += 1
    tracer.enabled = traced_rounds
    return times, traced_times, references, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--phase", choices=("setup", "run"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import gridcap

    if os.path.commonpath([os.path.abspath(gridcap.__file__), SRC]) != SRC:
        print(f"error: imported gridcap from {gridcap.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from spans import CLI_OP, Tracer
    from workloads import WORKLOADS

    tracer = Tracer(enabled=bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, tracer)
    setup_s = time.perf_counter() - start
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer.enabled = False
    problems = workload.prepare()
    failures = [(None, "prepare", problems)] if problems else []
    times, traced_times, references, attempted, op_failures = measure(workload, tracer, args.seconds, bool(args.trace))
    failures += op_failures
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer.op = CLI_OP
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        try:
            problems = workload.cli_parity(workdir)
        except Exception:  # a failing CLI run is a parity failure, reported with the rest
            problems = [traceback.format_exc()]
    if problems:
        failures.append((None, "cli_parity", problems))

    for op, kind, problems in failures:
        for problem in problems:
            print(f"check failed: op {op} ({kind}): {problem}", file=sys.stderr)
    if any(not samples for samples in times.values()):
        print("error: an op kind has no successful untraced op to time", file=sys.stderr)
        return 1

    op_s = sum(statistics.median(times[kind]) for kind in workload.op_kinds)
    reference_s = statistics.median(references)
    result = {
        "setup_s": setup_s,
        "op_s": op_s,
        "reference_s": reference_s,
        "op_cost": op_s / reference_s,
        "references": len(references),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len([f for f in failures if f[0] is not None]),
        "checks_passed": not failures,
        "info": workload.summary(times),
        "facts": facts(workload, args.seed),
    }
    if args.trace:
        layers = workload.layer_metrics()
        for module, seconds in tracer.self_times().items():
            if module in MODULES:
                layers[f"{module}.self_s"] = seconds
        traced = sum(statistics.median(traced_times[kind]) for kind in workload.op_kinds)
        layers["trace.overhead_share"] = (traced - op_s) / op_s
        result["layers"] = layers
        result["sanity"] = workload.sanity(layers)
        os.makedirs(TRACE_DIR, exist_ok=True)
        result["trace_file"] = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(result["trace_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
