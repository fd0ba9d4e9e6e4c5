#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload bulk-metro-16k --seed 1 --seconds 10 --trace 0

Run it from the root of the checkout. It builds perfbench/ (a Cargo package
of its own: offline, release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs the benchmark binary. The binary's last line of
standard output is the result document; its exit code is passed on (non-zero
when the build or a correctness check fails). See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "qkd-perfbench")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--work-dir", os.path.join(HERE, ".work")],
        cwd=ROOT, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
