#!/usr/bin/env python3
"""Build the benchmark package and run one workload in a fresh process.

    python3 perfbench/run.py --workload {repro,reanalyze,serve}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The package is built in release mode,
offline, into $CARGO_TARGET_DIR (default `.bench_build`). The last line
of standard output is the run's JSON result; build and progress output
go to standard error. Exits nonzero, without a result, when the build
fails, the run fails or times out, or its result line is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well within three minutes; the build is not counted.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["repro", "reanalyze", "serve"])
    parser.add_argument("--seed", type=int, default=20220707)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = dict(os.environ)
    # One malloc arena: with one per thread, the peak resident set of the
    # same run varied from 31 to 45 MiB with where threads landed.
    env["MALLOC_ARENA_MAX"] = "1"
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} ran past {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    lines = run.stdout.decode().strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"run.py: {args.workload} exited {run.returncode}", file=sys.stderr)
        if lines:
            print(lines[-1], file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"run.py: malformed result {lines[-1]!r}", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
