#!/usr/bin/env python3
"""Compare sets of heapbench results against BENCHMARK.json's bounds.

    python3 benchmark/compare.py SET [SET ...] [--bench BENCHMARK.json]

A SET is a directory of untraced result files (`run.sh --out`); traced
files in it are skipped. For every workload and end-to-end metric the
table gives each set's median, quartiles and spread (q3 - q1) / median
over its runs. Every set after the first is judged against the first:

  ok          its median is not worse than the first set's by more
              than the metric's bound
  WORSE       it is worse by more than the bound
  better      some set's spread exceeds the bound, but every run of
              this set reads better than every run of the first
  unresolved  some set's spread exceeds the bound otherwise

Runs are comparable only from one host and one window length: when
their fingerprints (nproc, CPU model, SIMD level, HEAP_THREADS, build
type, window) differ, the script lists them and exits 2. Otherwise it
exits 1 when any metric is WORSE, 0 when none is.
"""

import argparse
import json
import pathlib
import statistics
import sys

FINGERPRINT = ("nproc", "cpu_model", "simd", "heap_threads", "build_type",
               "window_s")


def fingerprint(doc):
    fields = {**doc["meta"], "window_s": doc["constants"]["window_s"]}
    return tuple(str(fields.get(k)) for k in FINGERPRINT)


def load_set(path):
    """{workload: {metric: [values]}} and the set's run fingerprints."""
    runs = {}
    hosts = set()
    for f in sorted(pathlib.Path(path).glob("*.json")):
        doc = json.loads(f.read_text())
        if doc.get("trace") != 0:
            continue
        hosts.add(fingerprint(doc))
        per = runs.setdefault(doc["workload"], {})
        for name, m in doc["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    if not runs:
        sys.exit(f"compare.py: no untraced result files in {path}")
    return runs, hosts


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(metric, base, other, spread_too_wide):
    lower = metric["better"] == "lower"
    if spread_too_wide:
        clear = max(other) < min(base) if lower else min(other) > max(base)
        return "better" if clear else "unresolved"
    b, o = statistics.median(base), statistics.median(other)
    worse = (o - b) / b if lower else (b - o) / b
    return "WORSE" if worse > metric["bound"] else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="+", help="result directories")
    ap.add_argument("--bench", default=str(
        pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    bench = json.loads(pathlib.Path(args.bench).read_text())
    sets = [load_set(s) for s in args.sets]
    hosts = set().union(*(h for _, h in sets))
    if len(hosts) > 1:
        print("The runs come from different hosts or windows; "
              "they are not comparable:")
        for h in sorted(hosts):
            print("   ", dict(zip(FINGERPRINT, h)))
        return 2

    worse = False
    for w in bench["workloads"]:
        name = w["name"]
        print(f"\n{name}")
        print(f"  {'metric':<16} {'set':>3} {'n':>3} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            m = metric["name"]
            columns = [runs.get(name, {}).get(m, []) for runs, _ in sets]
            if not all(columns):
                print(f"  {m:<16} missing in some set")
                continue
            too_wide = any(spread(v) > metric["bound"] for v in columns)
            for i, values in enumerate(columns):
                q1, q2, q3 = quartiles(values)
                tag = ""
                if i > 0:
                    tag = verdict(metric, columns[0], values, too_wide)
                    worse = worse or tag == "WORSE"
                print(f"  {m if i == 0 else '':<16} {i:>3} {len(values):>3} "
                      f"{q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread(values):>7.3f} {metric['bound']:>6}  {tag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
