#!/usr/bin/env bash
# Snapshot the workload-farm and scenario-engine benchmarks to a JSON
# file.  This closes the gap bench_snapshot.sh left: that script only
# *folds* bench_workload into the sorting snapshot, so the workload
# numbers had no first-class Release baseline of their own.
#
#   scripts/bench_workload_snapshot.sh [build-dir] [out.json] [min-time]
#
# Defaults to a Release-style baseline name, recorded with
#
#   cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-rel -j
#   OT_HOST_THREADS=$(nproc) scripts/bench_workload_snapshot.sh build-rel
#
# OT_HOST_THREADS above nproc is refused (exit 2).  The checked-in
# BENCH_workload_release.json predates that check: it ran 8 threads on
# a 1-CPU machine and is due to be re-recorded.
#
# The snapshot's "context" block records CMAKE_BUILD_TYPE, the
# dispatched SIMD backend and OT_HOST_THREADS — comparisons across
# snapshots must hold all three fixed (a Debug run is not comparable
# to this baseline at all).
set -euo pipefail

build_dir=${1:-build-rel}
out=${2:-BENCH_workload_release.json}
min_time=${3:-0.2}

# A host-thread count above the CPU count measures oversubscription,
# not the engine; refuse it, as hostbench does.
cpus=$(nproc)
if [[ "${OT_HOST_THREADS:-}" =~ ^[0-9]+$ ]] && ((10#$OT_HOST_THREADS > cpus)); then
    echo "error: OT_HOST_THREADS=$OT_HOST_THREADS exceeds the $cpus" \
        "CPUs of this machine; set it to at most $cpus" >&2
    exit 2
fi

bench="$build_dir/bench/bench_workload"
if [[ ! -x "$bench" ]]; then
    echo "error: $bench not found or not executable (build first)" >&2
    exit 1
fi

"$bench" \
    --benchmark_filter='BM_Batch(Cold|Warm|Wide)' \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    > /dev/null

# Fold in the scenario layer (policy replay, arrival generation, cold
# end-to-end) so the traffic-model numbers share the baseline.
scenario_bench="$build_dir/bench/bench_scenario"
if [[ -x "$scenario_bench" ]] && command -v python3 > /dev/null; then
    sc=$(mktemp)
    trap 'rm -f "$sc"' EXIT
    if "$scenario_bench" \
        --benchmark_filter='BM_(ScenarioReplay|ArrivalGen|ScenarioCold)' \
        --benchmark_min_time="$min_time" \
        --benchmark_out="$sc" \
        --benchmark_out_format=json \
        > /dev/null; then
        python3 - "$out" "$sc" << 'EOF'
import json, sys
out_path, sc_path = sys.argv[1], sys.argv[2]
with open(out_path) as f:
    bench = json.load(f)
with open(sc_path) as f:
    bench["scenario_benchmarks"] = json.load(f)["benchmarks"]
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
EOF
        echo "folded scenario benchmarks into $out"
    else
        echo "note: bench_scenario failed, skipping" >&2
    fi
fi

# The same context block bench_snapshot.sh records.
if command -v python3 > /dev/null; then
    build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
        "$build_dir/CMakeCache.txt" 2> /dev/null || true)
    otsim="$build_dir/tools/otsim"
    backend=""
    if [[ -x "$otsim" ]]; then
        backend=$("$otsim" simd | sed -n 's/^active: //p' || true)
    fi
    python3 - "$out" "${build_type:-unknown}" "${backend:-unknown}" \
        "${OT_HOST_THREADS:-auto}" << 'EOF'
import json, sys
out_path, build_type, backend, threads = sys.argv[1:5]
with open(out_path) as f:
    bench = json.load(f)
bench.setdefault("context", {})
bench["context"]["cmake_build_type"] = build_type
bench["context"]["simd_backend"] = backend
bench["context"]["ot_host_threads"] = threads
with open(out_path, "w") as f:
    json.dump(bench, f, indent=1)
EOF
    echo "context: build_type=${build_type:-unknown}" \
        "simd=${backend:-unknown} threads=${OT_HOST_THREADS:-auto}"
fi

echo "wrote $out (host threads: ${OT_HOST_THREADS:-auto})"
