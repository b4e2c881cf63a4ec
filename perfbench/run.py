#!/usr/bin/env python3
"""Build `gmcc` and the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload compile|execute|serve \
        --seed N --seconds S --trace 0|1

Cargo writes to $CARGO_TARGET_DIR (default `.bench_build`); the run's own
files (snapshots, the daemon's socket, spans) go to
`.bench_build/perfbench-run`. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Relative to ROOT, which is the working directory of every step: the
# daemon's Unix socket lives here and socket paths are limited to 108 bytes.
WORK = os.path.join(".bench_build", "perfbench-run")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "gmc", "--bin", "gmcc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--gmcc", os.path.join(release, "gmcc"), "--work", WORK]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
