#!/usr/bin/env bash
# Builds heapbench into benchmark/build/ and runs one workload, or all.
#
#   benchmark/run.sh --workload NAME|all --seed N [--trace [0|1]]
#                    [--smoke] [--out PATH] [--seconds S]
#
# The measured window is BENCHMARK.json's run_seconds, so every run of
# every commit measures the same span; --seconds may only restate it.
# --smoke    3 s windows, for checking that the benchmark works
# --trace    1 (or the bare flag) runs the traced variant: per-layer
#            metrics, spans in benchmark/build/traces/*.json
# --out      result file; with --workload all, a directory that gets
#            one <workload>-seed<N>.json per workload
#
# Build output goes to stderr; stdout ends with heapbench's JSON line.
# The exit code is non-zero when a build fails or any output is wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$here/build"

window="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
seconds="$window"

workload=""
seed="1"
trace="0"
out=""
while [[ $# -gt 0 ]]; do
    case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds)
        if [[ "$2" != "$window" ]]; then
            echo "run.sh: the window is run_seconds ($window s);" \
                 "use --smoke for a short run" >&2
            exit 2
        fi
        shift 2
        ;;
    --smoke) seconds="3"; shift ;;
    --out) out="$2"; shift 2 ;;
    --trace)
        if [[ $# -ge 2 && ( "$2" == "0" || "$2" == "1" ) ]]; then
            trace="$2"; shift 2
        else
            trace="1"; shift
        fi
        ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done
if [[ -z "$workload" ]]; then
    echo "run.sh: --workload NAME|all is required" >&2
    exit 2
fi

if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
    generator=()
    if command -v ninja >/dev/null 2>&1; then
        generator=(-G Ninja)
    fi
    cmake -S "$here" -B "$build" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target heapbench -j 4 >&2

# The commit, when this checkout is itself a git work tree (git may
# not look above it).
rev="unknown"
if top="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
        git -C "$root" rev-parse --show-toplevel 2>/dev/null)" \
    && [[ "$top" == "$root" ]]; then
    rev="$(git -C "$root" rev-parse HEAD)"
fi

export HEAP_THREADS=4

if [[ "$workload" == "all" ]]; then
    workloads=(boot_single boot_serve pir_lookup mixed_open)
    if [[ -n "$out" ]]; then
        mkdir -p "$out"
    fi
else
    workloads=("$workload")
fi

status=0
for w in "${workloads[@]}"; do
    args=(--workload "$w" --seed "$seed" --seconds "$seconds"
          --trace "$trace" --rev "$rev")
    if [[ -n "$out" ]]; then
        if [[ "$workload" == "all" ]]; then
            args+=(--out "$out/$w-seed$seed.json")
        else
            args+=(--out "$out")
        fi
    fi
    if [[ "$trace" == "1" ]]; then
        mkdir -p "$build/traces"
        args+=(--trace-file "$build/traces/$w-seed$seed.json")
    fi
    "$build/heapbench" "${args[@]}" || status=$?
done
exit "$status"
