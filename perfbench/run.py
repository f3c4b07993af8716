#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense_1t|mixed_mt|extract \\
        [--seed N] [--seconds S] [--trace 0|1]

Configures and builds perfbench/ (the library sources under src/ plus
perfbench/main.cpp, Release) into .bench_build/perfbench, then runs the
workload. Build output goes to stderr; the program's stdout is passed
through, so the last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (the span trace is written to
.bench_build/perfbench/trace-<workload>.json). The exit code is 0 only
when every operation's check passed. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("dense_1t", "mixed_mt", "extract")
DEFAULT_SEED = 0x5EED
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "core" / "tac.hpp").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(BUILD_DIR / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-out", str(BUILD_DIR / f"trace-{args.workload}.json"),
           "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
