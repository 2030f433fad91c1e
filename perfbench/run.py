"""Fit-and-serve benchmark for hiersparse.

    python3 perfbench/run.py --workload fit2d --seed 41 --seconds 30 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with tracing off; with
``--trace 1`` they are the per-layer ones, from a run with every hook
installed.  Lines before it, each starting with ``#``, record the
environment, the winner fingerprint and any failed check.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("fit1d", "fit2d", "serve_cli")
IMPORT_REPEATS = 5
FIT_WALL_NOTE = "# fit wall times (s) "
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameter numbers

# (metric, unit, better) for --trace 0, in report order
E2E_METRICS = [
    ("setup_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("predict_mean_pts_per_s", "points/s", "higher"),
    ("predict_ci_pts_per_s", "points/s", "higher"),
    ("cli_round_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("rmse_truth", "y", "lower"),
    ("gcv_cost_rel", "ratio", "lower"),
    ("coverage", "fraction", "higher"),
    ("ok_frac", "fraction", "higher"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the acceptance-test seed)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS/OpenMP threads (default 1; the library default is nproc)")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_seconds(threads: int) -> float:
    """Median time to import the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import hiersparse.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(threads),
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def pin_allocator() -> str:
    """Serve allocations up to 32 MiB from the heap, and keep freed memory.

    With glibc's defaults, whether a large temporary costs fresh page faults
    depends on what the run allocated before, and the faults' cost on the
    host.  predict_mean on the fit2d model makes five 16 MB temporaries per
    call; one call took 15 ms with this setting, 18-22 ms with the defaults
    and 25 ms when every temporary was a fresh mapping.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return "default"
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 1 << 30)
    return "glibc, heap up to 32 MiB, no trim"


def environment(threads: int, allocator: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "allocator": allocator,
    }


def fit_s_with_threads(args, threads: int) -> float | None:
    """Median wall time of the same workload's fits in a child process with
    ``threads`` BLAS threads.  Wall time, because with more threads the
    reference sample's LAPACK job speeds up too."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--threads", str(threads)]
    out = subprocess.run(cmd, env=child_env(threads), cwd=ROOT, capture_output=True,
                         text=True, timeout=170)
    if out.returncode != 0:
        return None
    line = next(ln for ln in out.stdout.splitlines() if ln.startswith(FIT_WALL_NOTE))
    return statistics.median(json.loads(line[len(FIT_WALL_NOTE):]))


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = args.threads
    # fixed before numpy loads, so an exported value cannot change the workload
    os.environ.update({var: str(threads) for var in THREAD_VARS})
    allocator = pin_allocator()
    if not (SRC / "hiersparse").is_dir():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    from layers import HOOKS, LAYER_METRICS, layer_metrics, probes
    from speed import Speed
    from tracer import Tracer

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEEDS[args.workload]
    print("# env " + json.dumps(environment(threads, allocator)))

    if args.trace:
        with Tracer() as tracer:
            tracer.install(HOOKS + probes())
            _, info, ops = workloads.run_workload(args.workload, args.seed, args.seconds,
                                                  traced=True)
        values = layer_metrics(tracer)
        table = LAYER_METRICS
        untraced_fit_s = workloads.untraced_fit_s(args.workload, args.seed)
        if untraced_fit_s is not None:
            print("# tracing overhead: traced fit_s - untraced fit_s = "
                  f"{info['fit_s_each'][0] - untraced_fit_s:.4f} s (bookkeeping "
                  f"{tracer.overhead_s:.4f} s)")
        if args.workload == "fit1d":
            print(f"# with the library default of {nproc()} BLAS threads (unscored): "
                  f"fit_s = {fit_s_with_threads(args, nproc())}")
        if tracer.missing:
            print("# missing hooks: " + ", ".join(tracer.missing))
        trace_path = workloads.WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.dump()))
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        # sampled only before and after: the children's imports would slow the samples
        with Speed(active=False) as speed:
            import_s = import_seconds(threads)
        import_s = speed.scale(import_s)
        values, info, ops = workloads.run_workload(args.workload, args.seed, args.seconds)
        values["setup_s"] += import_s
        table = E2E_METRICS

    print("# reference sample median by stretch (s) " + json.dumps(Speed.log))
    print(FIT_WALL_NOTE + json.dumps(info["fit_s_each"]))
    print("# fingerprint " + json.dumps(info["fingerprint"]))
    print("# served scale " + json.dumps(info["served_scale"]))
    for problem in ops.problems:
        print("# FAILED " + problem)
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
