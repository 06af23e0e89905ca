"""Benchmark of the hfourier library: one workload per process, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload table_roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run sets up the workload's inputs (three times; the median plus the
import time is ``setup_s``), computes its references, then repeats whole
rounds of identical operations until ``--seconds`` have passed.  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` the per-layer counters of
``layer_trace.py`` are installed and reported instead.  ``--workload all``
runs every workload in its own child process and prints a summary.

Timed metrics are process CPU seconds: on a shared 2-vCPU host, stolen
time made wall times swing by a third between minutes while CPU time per
round stayed within a few per cent.  BLAS runs one thread: with two, its
workers spin, doubling CPU time without lowering wall time.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("table_roundtrip", "heat_kernel", "pairings", "symbol_spot")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


def _single_thread_blas():
    """Set before numpy is imported; returns the number of usable cores."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name == "fields.bytes":
        return "bytes"
    return "count"


def run_one(args):
    cores = _single_thread_blas()
    t_import = time.process_time()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hfourier", "__init__.py")):
        print(f"error: no hfourier sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy as np
    import scipy

    import hfourier
    import workloads
    from layer_trace import LayerTrace

    if os.path.dirname(os.path.abspath(hfourier.__file__)) != os.path.join(src, "hfourier"):
        print(f"error: imported hfourier from {hfourier.__file__}, not from {src}", file=sys.stderr)
        return 2
    t_import = time.process_time() - t_import

    workroot = os.path.join(ROOT, ".perfbench-work")
    workdir = os.path.join(workroot, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.process_time()
            wl.setup()
            setups.append(time.process_time() - t0)
        setup_s = t_import + statistics.median(setups)
        wl.prepare_reference()

        trace = None
        if args.trace:
            trace = LayerTrace()
            trace.install()
            wl.trace = trace
        rounds, layers = [], []
        start = time.perf_counter()
        while True:
            log = workloads.RoundLog()
            wl.run_round(log)
            rounds.append(log)
            if trace is not None:
                layers.append(trace.snapshot())
            if time.perf_counter() - start >= args.seconds:
                break
        if trace is not None:
            trace.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:  # absent, or another run still uses it
            pass

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    mismatches = [m for r in rounds for m in r.mismatches]
    for msg in [e for r in rounds for e in r.errors] + mismatches:
        print(f"{args.workload}: {msg}", file=sys.stderr)

    round_cpu_s = statistics.median(r.round_cpu_s for r in rounds)
    stages = {k: statistics.median(r.stage_cpu[k] for r in rounds) for k in rounds[0].stage_cpu}
    print(f"# {args.workload}: seed {args.seed}, {len(rounds)} rounds, nproc {cores}, BLAS threads 1, "
          f"numpy {np.__version__}, scipy {scipy.__version__}")
    print(f"# {args.workload}: wall time per round = {statistics.median(r.round_s for r in rounds):.6g} s")
    for name, value, unit in wl.report(stages):
        print(f"# {args.workload}: {name} = {value:.6g} {unit} (CPU)")
    worst = {}
    for r in rounds:
        for what, (err, tol) in r.worst.items():
            worst[what] = (max(err, worst.get(what, (0.0,))[0]), tol)
    for what, (err, tol) in worst.items():
        print(f"# {args.workload}: check {what}: {err:.3g} (tolerance {tol:.3g})")

    if args.trace:
        metrics = {name: {"value": statistics.median(snap[name] for snap in layers), "unit": _unit(name)}
                   for name in layers[0]}
        metrics["bench.round_cpu_s"] = {"value": round_cpu_s, "unit": "s"}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "round_cpu_s": {"value": round_cpu_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process; a summary table at the end."""
    ok = True
    summary = []
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        summary.append((name, result))
    print()
    for name, result in summary:
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {str(result['correct']).lower()}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
