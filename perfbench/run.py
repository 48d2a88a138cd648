#!/usr/bin/env python3
"""Builds perfbench from source, then runs it with the given arguments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Cargo's output goes to stderr, so the last
stdout line is the benchmark's JSON result. The build lands in
$CARGO_TARGET_DIR, or perfbench/target when that is unset.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
