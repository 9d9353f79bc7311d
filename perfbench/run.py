#!/usr/bin/env python3
"""Build and run the BinTuner tuning benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_tune --seed 1 --seconds 20 --trace 0

Builds the release `bintuner` binary (the worker the daemon's farm
re-executes) and the benchmark binary into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark with the given arguments. The
benchmark's standard output passes through unchanged; its last line is
the JSON result. Build output goes to standard error.
"""

import os
import subprocess
import sys

BUILDS = [
    ["--manifest-path", "Cargo.toml", "-p", "bintuner", "--bin", "bintuner"],
    ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
]


def main():
    root = os.getcwd()
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Keep every file the run creates inside the checkout.
    tmp = os.path.join(root, ".bench_work", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    for args in BUILDS:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 1
    exe = os.path.join(root, target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
