"""gridcap benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads and metrics are declared in
BENCHMARK.json; workloads.py says why each workload was chosen.

With `--trace 0` the run measures the end-to-end metrics:

setup_s
    median over several fresh processes of `import gridcap` plus building
    the workload's inputs, in seconds.
op_cost
    the workload's op time in units of a fixed reference kernel that uses no
    gridcap code (worker.reference_kernel), timed before every op of the
    same run: the sum over op kinds of the median op time, divided by the
    median kernel time. The speed of a shared machine drifts by tens of
    percent over minutes; the ratio cancels that drift, and it moves with
    the program's own cost like the time does. The raw seconds are printed
    as `info` lines.
peak_rss_mb
    the workload process's maximum resident set.

With
`--trace 1` it reports the per-layer metrics instead: span timings around
each call into a package module, module self times, layer counts, CLI
timings, import times from `python -X importtime`, and the tracing
overhead. Layers a workload does not call report 0.

Every op's outputs are checked, and the CLI is run once per run on the same
arguments as the composed pipeline and must export the same bytes. Lines
before the last one name every metric with its unit for a human reader; the
last line is the machine-readable result. The script exits non-zero, with
no result line, when a worker fails, for instance when `src/gridcap` is
missing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 3
IMPORT_PROBES = 3
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _run(command, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"no time left to run {' '.join(command)}")
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{' '.join(command)} exited {proc.returncode}")
    return proc


def worker(phase, args, env, deadline):
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--phase", phase, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = _run(command, env, deadline)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker {phase} printed no result")
    return json.loads(lines[-1])


def import_times(env, deadline):
    """Cumulative import time of gridcap and of scipy.integrate, in seconds, from -X importtime."""
    found = {"gridcap": 0.0, "scipy.integrate": 0.0}
    env = dict(env, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = _run([sys.executable, "-X", "importtime", "-c", "import gridcap"], env, deadline)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        name = fields[-1].strip()
        if name in found and fields[1].strip().isdigit():
            found[name] = int(fields[1]) / 1e6
    return found


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, **{var: str(nproc) for var in BLAS_THREAD_VARS})
    try:
        setups = [] if args.trace else [worker("setup", args, env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = worker("run", args, env, deadline)
        imports = [import_times(env, deadline) for _ in range(IMPORT_PROBES)] if args.trace else []
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"gridcap benchmark: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"closed loop with one caller, BLAS threads pinned to {nproc}")
    print("facts " + json.dumps(result["facts"], sort_keys=True))
    for item in result["info"]:
        tail = item.get("tail")
        tail_text = (f"p{tail[0]:g} {tail[1]:.6g} {item['unit']}" if tail
                     else "no percentile has 10 samples beyond it")
        note = f"; {item['note']}" if item.get("note") else ""
        print(f"info {item['name']} = {item['value']:.6g} {item['unit']} (median of {item['samples']}; {tail_text}"
              f"{note})")
    print(f"info op_s = {result['op_s']:.6g} s (sum over op kinds of the median op time)")
    print(f"info reference_s = {result['reference_s']:.6g} s (median of {result['references']} reference-kernel runs, "
          "one before each op)")
    failed_share = result["failed"] / result["attempted"]
    print(f"info failed_op_share = {failed_share:g} ({result['failed']} of {result['attempted']} ops)")

    if args.trace:
        declared = spec["per_layer"]
        measured = dict(result["layers"])
        measured["setup.import_gridcap_s"] = statistics.median(probe["gridcap"] for probe in imports)
        measured["setup.import_scipy_integrate_s"] = statistics.median(probe["scipy.integrate"] for probe in imports)
        for line in result["sanity"]:
            print(f"sanity {line}")
        print(f"sanity setup.import_gridcap_s = {measured['setup.import_gridcap_s']:.3f} s; ROADMAP baseline 0.74 s")
        print(f"trace spans written to {os.path.relpath(result['trace_file'], ROOT)}")
    else:
        declared = spec["end_to_end"]
        measured = {
            "setup_s": statistics.median(setups + [result["setup_s"]]),
            "op_cost": result["op_cost"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    metrics = {}
    for m in declared:
        value = measured.get(m["name"], 0)
        idle = "" if m["name"] in measured else " (layer idle in this workload)"
        print(f"metric {m['name']} = {value:.6g} {m['unit']}{idle}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({
        "correct": result["checks_passed"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
