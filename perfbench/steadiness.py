#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workload stream-hz --seeds 1-10 [--json OUT]

Runs the benchmark once per seed (untraced, BENCHMARK.json's run_seconds) and
reports, for every end-to-end metric, the median and the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of the
median. The spread of every metric must stay within its bound; the
benchmark aims for a third of it. Also checks that every run passed its
output checks. Exits 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="also write the runs and spreads here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    runs = []
    for seed in parse_seeds(args.seeds):
        code, result = run_once(args.workload, seed, spec["run_seconds"])
        if code != 0 or not result or not result["correct"] or result["failed"]:
            print(f"seed {seed}: run failed (exit {code}): {result}")
            ok = False
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "metrics": values})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
              flush=True)

    spreads = {}
    print(f"\n{args.workload}: {len(runs)} runs")
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if len(values) < 4:
            print(f"{name:<18} missing")
            ok = False
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("inf")
        spreads[name] = {"median": median, "spread": spread, "bound": bound}
        if spread > bound:
            verdict = "TOO NOISY"
            ok = False
        elif spread > bound / 3:
            verdict = "within bound, above a third"
        else:
            verdict = "steady"
        print(f"{name:<18} {median:>12.5g} {spread:>8.4f} {bound:>6}  {verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "spreads": spreads}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
