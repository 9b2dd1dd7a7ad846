#!/usr/bin/env python3
"""End-to-end LHMM benchmark entry point (see README.md in this directory).

    python3 perfbench/run.py --workload offline-hz|stream-hz|serve-tcp \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. It builds the library, lhmm_serve and
the benchmark program from source into $CARGO_TARGET_DIR (default
.bench_build)/perfbench; a build directory configured from another checkout is
thrown away first. It then simulates the Hangzhou-S world and trains the LHMM
model into .../perfbench-data-<key>, where <key> hashes every source file the
build reads, so a change to the code prepares a new world, model and reference
store instead of reusing those of other code. Every run then executes one
workload and prints its metrics; the last line of standard output is the JSON
result. The exit code is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("offline-hz", "stream-hz", "serve-tcp")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def check_checkout():
    needed = ["CMakeLists.txt", "src/lhmm/lhmm_matcher.h", "tools/lhmm_serve.cc"]
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        log(f"not inside an LHMM source checkout (missing {', '.join(missing)})")
        sys.exit(2)


def source_key():
    """Hash of the files the build compiles or reads: the library sources,
    lhmm_serve, and the benchmark program with its build file."""
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [p for p in (BENCH_DIR / "src").rglob("*") if p.is_file()]
    files += [ROOT / "tools" / "lhmm_serve.cc", BENCH_DIR / "CMakeLists.txt"]
    digest = hashlib.sha256()
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def configured_source(build_dir):
    """The source directory a build directory was configured from, or None."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.partition("=")[2]).resolve()
    return None


def build(build_dir):
    """Configures when needed, then lets the build tool decide what is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    if configured_source(build_dir) != BENCH_DIR:
        # Absent, or configured from another checkout: the build tool would
        # keep compiling that checkout's sources.
        shutil.rmtree(build_dir, ignore_errors=True)
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)


def prepare(program, data_dir, smoke):
    """Simulates the world and trains the model once per source key. Written
    to a temporary directory and renamed, so an interrupted run leaves nothing
    half made."""
    if (data_dir / "model.hash").exists():
        return
    tmp = data_dir.with_name(data_dir.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [str(program), "prepare", "--data-dir", str(tmp)]
    if smoke:
        cmd += ["--smoke", "1"]
    log(f"preparing the world and training the model into {data_dir.name}")
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    shutil.rmtree(data_dir, ignore_errors=True)
    tmp.rename(data_dir)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="micro world and tiny workloads, for the smoke test")
    args = parser.parse_args()
    check_checkout()

    root = build_root()
    build_dir = root / "perfbench"
    build(build_dir)
    suffix = "smoke" if args.smoke else "data"
    data_dir = root / f"perfbench-{suffix}-{source_key()}"
    prepare(build_dir / "perfbench", data_dir, args.smoke)

    cmd = [str(build_dir / "perfbench"), "run",
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--data-dir", str(data_dir),
           "--work-dir", str(root / f"perfbench-work-{suffix}"),
           "--serve-bin", str(build_dir / "lhmm_serve")]
    if args.smoke:
        cmd += ["--smoke", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted",
                                                       "failed", "metrics"}:
        # No result line: forward what the program said, but never end with
        # something that could be read as a result.
        sys.stderr.write(proc.stdout)
        log(f"perfbench exited with code {proc.returncode} without a result")
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
