#!/usr/bin/env python3
"""Builds shoal and the benchmark from source, then runs one workload.

Usage, from the root of a shoal checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default: .bench_build in the
checkout) and print only to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
checkout or a build is missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: no shoal workspace (Cargo.toml, crates/) next to perfbench/",
              file=sys.stderr)
        return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-p", "shoal-cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} failed", file=sys.stderr)
            return done.returncode
    bench = os.path.join(target, "release", "shoal-perfbench")
    shoal = os.path.join(target, "release", "shoal")
    return subprocess.run([bench, *sys.argv[1:], "--shoal", shoal], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
