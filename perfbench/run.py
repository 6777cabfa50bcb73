#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary (this directory's Cargo package) and the
`thermsched` CLI, whose `worker` command serves the multi-process workload,
into $CARGO_TARGET_DIR (default `.bench_build`). Then generates the
workload's corpus for the seed and runs the benchmark on it. Build output goes
to stderr; the benchmark's report goes to stdout and ends with one JSON line.
Exits non-zero, without a result line, if a build, a check or the run fails.
"""

import argparse
import os
import subprocess
import sys
import time

# Generating and running must end this long after the builds.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "thermsched"],
    )
    for build in builds:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *build],
            cwd=root, env=env, stdout=sys.stderr,
        )
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: cargo {' '.join(build)}")

    release = os.path.join(target, "release")
    work_dir = os.path.join(target, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    binary = os.path.join(release, "perfbench")
    common = ["--workload", args.workload, "--work-dir", work_dir]
    steps = (
        [binary, "gen", *common, "--seed", str(args.seed)],
        [binary, "run", *common, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--worker", os.path.join(release, "thermsched")],
    )
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.exit(f"run.py: {step[1]} did not finish within {RUN_TIMEOUT_S} s")
        if done.returncode != 0:
            sys.exit(f"run.py: perfbench {step[1]} exited with {done.returncode}")


if __name__ == "__main__":
    main()
