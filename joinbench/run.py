#!/usr/bin/env python3
"""Builds the join benchmark, runs one workload, and cleans up after it.

Run from the repository root:

    python3 joinbench/run.py --workload roads-csj-seq --seed 1 --seconds 10 --trace 0

The benchmark binary is built with cargo into $CARGO_TARGET_DIR (default
.bench_build). Scratch files (points, page file, outputs) live under
.bench_tmp/ on the checkout's own disk and are deleted when the run ends,
whether it succeeded or not. A traced run leaves its spans in
.bench_out/trace-<workload>.jsonl. The last line on stdout is the result
object; the line before it holds the run metadata.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("roads-csj-seq", "roads-ncsj-par", "roads-ncsj-ooc", "roads-csj-shard")
# A round holds a points file, a page file and two output files of at most
# a few hundred MB together; refuse to start on a nearly full disk.
MIN_FREE_BYTES = 2 << 30
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 150


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env={**os.environ, "CARGO_TARGET_DIR": target},
    )
    if build.returncode != 0:
        print("joinbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(root, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        free = shutil.disk_usage(scratch).free
        if free < MIN_FREE_BYTES:
            print(f"joinbench: only {free >> 20} MiB free under {scratch}", file=sys.stderr)
            return 1
        cmd = [os.path.join(target, "release", "joinbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--dir", scratch]
        if args.trace == "1":
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(out_dir, f"trace-{args.workload}.jsonl")]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"joinbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"joinbench: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write(proc.stdout)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
