#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <tx_ycsb|kv_tcp|recover> \
        --seed <n> --seconds <s> --trace <0|1>

Cargo's output goes to standard error, so the benchmark's report, ending
in one JSON result line, is all that reaches standard output. The build
uses `CARGO_TARGET_DIR` when it is set. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
