#!/usr/bin/env python3
"""Builds the benchmark and cr-serve from source, then runs one benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

All arguments go to the `perfbench` binary (see perfbench/README.md).
Build output goes to `$CARGO_TARGET_DIR`, or `.bench_build` when unset;
cargo's own messages go to stderr, so the last stdout line is the result.
"""

import os
import signal
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest,
         "-p", "perfbench", "-p", "cr-service", "--bins"],
        stdout=sys.stderr, env=env, timeout=700,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    # A session of its own, so that a timeout also stops the cr-serve
    # processes the benchmark spawned.
    bench = subprocess.Popen(
        [os.path.join(release, "perfbench"), *sys.argv[1:],
         "--serve-bin", os.path.join(release, "cr-serve"),
         "--out-dir", os.path.join(target, "perfbench")],
        env=env, start_new_session=True,
    )
    try:
        return bench.wait(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print("perfbench: timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
