#!/usr/bin/env python3
"""Smoke test of heapbench, run by ctest as `heapbench_smoke`.

    python3 check_smoke.py HEAPBENCH BENCHMARK.json

Runs every workload of BENCHMARK.json for a 3 s window, untraced and
traced, in the current directory, and checks that

  - the last line of stdout is one JSON object with exactly the keys
    correct, attempted, failed and metrics;
  - the correctness gate passed: correct, nothing failed, exit code 0;
  - the metric names are exactly BENCHMARK.json's end_to_end names
    (untraced) or per_layer names (traced), with the same units, and
    every value is a finite number, positive for end-to-end metrics;
  - the result file and the Chrome trace parse.
"""

import json
import math
import pathlib
import subprocess
import sys


def check_run(binary, bench, workload, trace, workdir):
    expected = bench["end_to_end" if trace == 0 else "per_layer"]
    out = workdir / f"{workload}-trace{trace}.json"
    spans = workdir / f"{workload}-spans.json"
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "1", "--seconds", "3",
         "--trace", str(trace), "--out", str(out),
         "--trace-file", str(spans)],
        capture_output=True, text=True, timeout=600)
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return errors + [f"last stdout line is not JSON: {e}"]
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(last)}")
    if last.get("correct") is not True or last.get("failed") != 0:
        errors.append(f"correctness gate: correct={last.get('correct')} "
                      f"failed={last.get('failed')}")
    if not isinstance(last.get("attempted"), int) or last["attempted"] < 1:
        errors.append(f"attempted={last.get('attempted')}")
    metrics = last.get("metrics", {})
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        errors.append(f"missing {sorted(set(want) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name} = {value!r}")
        elif trace == 0 and value <= 0:
            errors.append(f"end-to-end {name} = {value}, must be positive")
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{name} unit {m.get('unit')!r}, "
                          f"BENCHMARK.json says {want[name]!r}")
    doc = json.loads(out.read_text())
    if doc.get("workload") != workload or "meta" not in doc:
        errors.append("result file lacks workload or meta")
    if trace == 1 and not json.loads(spans.read_text())["traceEvents"]:
        errors.append("empty trace")
    return errors


def main():
    binary, bench_path = sys.argv[1], sys.argv[2]
    bench = json.loads(pathlib.Path(bench_path).read_text())
    workdir = pathlib.Path("smoke")
    workdir.mkdir(exist_ok=True)
    failed = False
    for w in bench["workloads"]:
        for trace in (0, 1):
            errors = check_run(binary, bench, w["name"], trace, workdir)
            status = "ok" if not errors else "FAIL"
            print(f"{w['name']} trace={trace}: {status}")
            for e in errors:
                print(f"    {e}")
            failed = failed or bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
