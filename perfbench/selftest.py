#!/usr/bin/env python3
"""Tiny-size self-test of every benchmark workload.

Runs each workload of `BENCHMARK.json` on a tiny graph (`--tiny`), once
untraced and once traced, and checks that the run exits 0, that the
oracle gate passed (`correct` true, `failed` 0), and that the result
object names exactly the metrics `BENCHMARK.json` lists for that mode,
each a finite number in the listed unit.

Usage (from the repository root): python3 perfbench/selftest.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check(workload, trace, spec):
    cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    problems = []
    if out.returncode != 0:
        problems.append(f"exit code {out.returncode}: {out.stderr[-2000:]}")
    if not lines:
        return problems + ["no output"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"oracle gate: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}")
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} = {value!r}")
        if name in want and metric.get("unit") != want[name]:
            problems.append(f"{name} unit {metric.get('unit')!r}, want {want[name]!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
