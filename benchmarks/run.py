"""Run one workload of the pas benchmark and print its metrics.

    python3 benchmarks/run.py --workload wide --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  The workload's inputs are generated from ``--seed``; its timed
part runs passes until ``--seconds`` have elapsed (at least one) and the
median pass is reported in reference-host seconds (see hostclock.py).  With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` the run spends half its time untraced
and half traced, and reports every per-layer metric instead.  The line
before it records the machine and library settings.  Scratch files live
in ``.bench_work/`` and are removed on exit.
"""

import argparse
import os
import sys

# One BLAS thread, set before numpy is imported; pas bench runs serially.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("PAS_THREADS", None)

import ctypes
import ctypes.util
import gc
import glob
import json
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
WALL, REF = 0, 1                 # fields of HostClock.time's result
# glibc raises its mmap threshold after the first large free, so before that
# every numpy temporary above 128 KiB is page-faulted in afresh: a wide fit
# then takes 13.8 s with 3.5 million minor faults, after it 5.6 s with none.
# Pinning the threshold at the ceiling the dynamic rule reaches (32 MiB,
# trim at twice that) removes the dependence on allocation history.
MMAP_THRESHOLD = 32 << 20
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


def pin_allocator():
    """Fix glibc's malloc thresholds; return the pinned value or None."""
    name = ctypes.util.find_library("c")
    mallopt = getattr(ctypes.CDLL(name), "mallopt", None) if name else None
    if mallopt is None:
        return None
    if not (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
            and mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)):
        return None
    return MMAP_THRESHOLD


def machine(mmap_threshold):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    # ask the OpenBLAS that numpy loaded, since threadpoolctl is not installed
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            threads = fn()
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
            "malloc_mmap_threshold": mmap_threshold}


def timed_passes(work, clock, budget_s, tracer=None, per_pass=None):
    """Run passes until ``budget_s`` has elapsed (at least one).

    Returns the (wall, reference-host) seconds of each pass; with a tracer,
    appends each pass's per-layer metrics to ``per_pass``.
    """
    from tracer import layer_metrics

    times = []
    start = time.perf_counter()
    while True:
        gc.collect()
        first = len(tracer.spans) if tracer else 0
        times.append(clock.time(work.run_pass))
        print("pass %.4f s wall, %.4f s reference, host kernel %.4f s"
              % (times[-1] + (clock.kernel_s[-1],)), file=sys.stderr)
        if tracer:
            per_pass.append(layer_metrics(tracer.spans, first, len(tracer.spans)))
        if time.perf_counter() - start >= budget_s:
            return times


def median(times, field):
    return statistics.median(t[field] for t in times)


def run(args, work_dir):
    from hostclock import HostClock
    from tracer import Tracer, setup_metrics
    from workloads import WORKLOADS, Ops

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = Ops()
    work = WORKLOADS[args.workload](ops, str(work_dir), args.seed)
    clock = HostClock()
    setups = [clock.time(work.setup) for _ in range(SETUP_REPEATS)]

    if args.trace:
        untraced = timed_passes(work, clock, args.seconds / 2)
        per_pass = []
        with Tracer() as tracer:
            work.setup()
            metrics = setup_metrics(tracer.spans)
            traced = timed_passes(work, clock, args.seconds / 2, tracer, per_pass)
        metrics.update((name, statistics.median(p[name] for p in per_pass))
                       for name in per_pass[0])
        metrics["trace.untraced_task_s"] = median(untraced, REF)
        metrics["trace.traced_task_s"] = median(traced, REF)
        metrics["trace.overhead_s"] = (metrics["trace.traced_task_s"]
                                       - metrics["trace.untraced_task_s"])
        metrics["trace.self_share"] = statistics.median(
            p["trace.self_total_s"] / t[WALL] for p, t in zip(per_pass, traced))
        metrics["host.task_wall_s"] = median(untraced, WALL)
        metrics["host.reference_s"] = statistics.median(clock.kernel_s)
        wanted = spec["per_layer"]
        work.check()
    else:
        times = timed_passes(work, clock, args.seconds)
        metrics = work.check()
        metrics["setup_s"] = median(setups, REF)
        metrics["task_s"] = median(times, REF)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics["ops_ok_ratio"] = (ops.attempted - ops.failed) / ops.attempted
        wanted = spec["end_to_end"]

    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        raise RuntimeError("metrics %r do not match BENCHMARK.json %r"
                           % (sorted(metrics), sorted(names)))
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="suites, wide, pda-large or serve")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pas" / "__init__.py").is_file():
        print("error: %s has no src/pas; run from a pas source checkout" % ROOT,
              file=sys.stderr)
        return 2
    mmap_threshold = pin_allocator()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))

    work_root = ROOT / ".bench_work"
    work_dir = work_root / ("%s-%d" % (args.workload, os.getpid()))
    work_dir.mkdir(parents=True)
    try:
        result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:          # another run still uses it
            pass
    print(json.dumps({"machine": machine(mmap_threshold)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
