"""Record benchmark runs as ``BENCH_<label>.json``, one file per commit measured.

    python3 scripts/bench_record.py LABEL [--runs N] [--workload W ...] [--seed S]
                                          [--checkout DIR]

Runs ``perfbench/run.py --workload W --seconds S`` N times for each workload,
in the checkout at DIR (default: this repository), with the run length that
``BENCHMARK.json`` sets.  The record, written to this repository's root,
holds the ``# env`` line, every run's metrics and fingerprint, and for each
metric its median and quartiles.  If the record exists, the new runs are
added to it, so that alternating calls on two checkouts build a paired
comparison:

    for i in 1 2 3; do
        python3 scripts/bench_record.py parent --runs 1 --checkout ../parent
        python3 scripts/bench_record.py change --runs 1
    done
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_LINE, FINGERPRINT_LINE, FIT_WALL_LINE = "# env ", "# fingerprint ", "# fit wall times (s) "


def parse_run(stdout: str) -> tuple[dict, dict, dict]:
    """(environment, units, run) from the output of one ``perfbench/run.py``:
    the env line; each metric's unit; and the result JSON of the last line,
    with each metric's value, the ``# fingerprint`` line and the raw fit wall
    times (s) that ``fit_s`` scales."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(ln[len(ENV_LINE):]) for ln in lines if ln.startswith(ENV_LINE)), None)
    if env is None:
        raise ValueError("no '# env' line in the benchmark output")
    result = json.loads(lines[-1])
    fingerprint = next((json.loads(ln[len(FINGERPRINT_LINE):]) for ln in lines
                        if ln.startswith(FINGERPRINT_LINE)), None)
    run = {key: result[key] for key in ("correct", "attempted", "failed")}
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    run["fingerprint"] = fingerprint
    run["fit_wall_s"] = next((json.loads(ln[len(FIT_WALL_LINE):]) for ln in lines
                              if ln.startswith(FIT_WALL_LINE)), None)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    return env, units, run


def summarize(runs: list[dict], units: dict) -> dict:
    """Per metric over ``runs``: unit, run count, median and quartiles."""
    summary = {}
    for name, unit in units.items():
        values = [run["metrics"][name] for run in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        summary[name] = {"unit": unit, "runs": len(values),
                         "median": statistics.median(values), "q1": q1, "q3": q3}
    return summary


def add_run(record: dict, key: str, env: dict, units: dict, run: dict) -> dict:
    """``record`` with ``run`` added under workload ``key`` and its summary renewed;
    a run from another environment is refused, since its figures do not compare."""
    if record.setdefault("env", env) != env:
        raise ValueError(f"environment {env} differs from the record's {record['env']}")
    entry = record.setdefault("workloads", {}).setdefault(key, {"runs": []})
    entry["runs"].append(run)
    entry["summary"] = summarize(entry["runs"], units)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label", help="names the record: BENCH_<label>.json")
    p.add_argument("--runs", type=int, default=1, help="runs per workload")
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: every BENCHMARK.json workload)")
    p.add_argument("--seed", type=int, help="workload seed (default: perfbench's)")
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="tree whose perfbench/ and src/ are run")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    path = ROOT / f"BENCH_{args.label}.json"
    record = json.loads(path.read_text()) if path.exists() else {"label": args.label}
    record["seconds"] = bench["run_seconds"]
    for _ in range(args.runs):
        for workload in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seconds", str(bench["run_seconds"])]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, cwd=args.checkout, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            key = workload if args.seed is None else f"{workload}-seed{args.seed}"
            add_run(record, key, *parse_run(proc.stdout))
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{key}: {len(record['workloads'][key]['runs'])} runs in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
