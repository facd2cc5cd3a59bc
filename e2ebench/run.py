#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload stream-118 --seed 1 --seconds 20 --trace 0

Cargo's output goes to stderr; the benchmark's own stdout passes through,
ending with one JSON result line. Build artifacts go to
$CARGO_TARGET_DIR (default: .bench_build at the repository root). The exit
code is the benchmark's, or non-zero when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run measures for --seconds and sets up around that; anything slower
# than this is hung.
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH_DIR / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "pmu-e2ebench"
    work = target / "e2ebench-work"
    try:
        run = subprocess.run(
            [str(binary), *sys.argv[1:], "--work", str(work)],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
