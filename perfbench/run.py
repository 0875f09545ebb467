#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The repository's own `serve` and `scenario` binaries are built from the
root workspace exactly as users build them; the `perfbench` binary
(`perfbench/`) is a separate Cargo workspace that links the repository's
crates by path. Both builds go to $CARGO_TARGET_DIR (default
`.bench_build`). Build output goes to stderr; `perfbench`'s standard
output is passed through unchanged, so its last line is the JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml",
         "-p", "ddpm-serve", "--bin", "serve",
         "-p", "ddpm-bench", "--bin", "scenario"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    bin_dir = os.path.join(target, "release")
    bench = os.path.join(bin_dir, "perfbench")
    cmd = [bench, "--bin-dir", bin_dir, *sys.argv[1:]]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
