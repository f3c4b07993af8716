#!/usr/bin/env python3
"""Smoke-test the benchmark: one short run of every workload, untraced and
traced, checking that each prints its fingerprint and a result whose
metrics are exactly the ones BENCHMARK.json names, with their units, and
that no operation failed.

Usage (from the repository root): python3 perfbench/selftest.py
Exits 0 when every run passes. Takes a few minutes (each run sets up its
inputs three times).
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check_run(workload, trace, expected):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if not any(line.startswith("fingerprint {") for line in lines):
        problems.append("no fingerprint line")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + ["last line is not JSON: " + proc.stderr[-500:]]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not result.get("attempted", 0) >= 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        problems.append("metric names differ: missing "
                        f"{sorted(set(expected) - set(metrics))}, extra "
                        f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r} != {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: value {got.get('value')!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, expected[trace])
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}", flush=True)
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
