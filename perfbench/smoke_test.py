#!/usr/bin/env python3
"""Smoke test of the benchmark on a micro world (a few trajectories, a model
trained for a few steps), run from the root of a source checkout:

    python3 perfbench/smoke_test.py

For every workload it makes two untraced runs and one traced run at one seed
and checks that

  * each run exits 0 and reports correct, with no failed operation;
  * the untraced runs print exactly BENCHMARK.json's end-to-end metrics and
    the traced run exactly its per-layer metrics, each with its unit;
  * the path digests and the model hash repeat across the two untraced runs.

Exits 1 on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 7


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stdout}")
    result = json.loads(lines[-1])
    infos = [l for l in lines if l.startswith("info digest ") or l.startswith("info model_hash ")]
    return result, infos


def check_metrics(workload, trace, result, expected):
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} trace={trace}: {result['correct']=} "
                 f"{result['failed']=} {result['attempted']=}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        sys.exit(f"FAIL {workload} trace={trace}: missing={missing} extra={extra} "
                 f"wrong_unit={wrong}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        workload = w["name"]
        first, first_info = run(workload, 0)
        second, second_info = run(workload, 0)
        traced, _ = run(workload, 1)
        check_metrics(workload, 0, first, e2e)
        check_metrics(workload, 0, second, e2e)
        check_metrics(workload, 1, traced, per_layer)
        if len(first_info) != 2 or first_info != second_info:
            sys.exit(f"FAIL {workload}: digests differ between runs of one seed:\n"
                     f"{first_info}\n{second_info}")
        print(f"ok {workload}: {len(e2e)} end-to-end + {len(per_layer)} per-layer "
              f"metrics with units; {first_info[1]}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
