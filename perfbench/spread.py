"""Run one workload over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload fit2d --seeds 1-10 [--seconds 30]

Runs are sequential, one process each.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median; ``--out FILE`` also saves the raw results as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(results: list[dict]) -> dict:
    table = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        table[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
        }
    return table


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", default="30")
    p.add_argument("--out")
    args = p.parse_args(argv)

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["notes"] = [ln for ln in out.stdout.splitlines() if ln.startswith("#")]
        results.append(result)
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    table = summarize(results)
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, row in table.items():
        print(f"{name:34s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
              f"{row['spread']:8.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": results, "summary": table}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
