#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload <remote|local|durable> --seed <n> \\
        --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the current
directory); cargo's output goes to stderr, so the benchmark's own result
line stays the last line of stdout.
"""

import os
import subprocess
import sys


def main() -> int:
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
