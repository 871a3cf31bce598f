#!/usr/bin/env bash
# CI entry point: the full tier-1 suite on the default preset, the frozen
# host-time benchmark's smoke run, then the fast `unit`-labeled tests again
# under ASan+UBSan, under TSan and in the BRICKX_OBS=OFF build (the
# sanitizer passes skip slow/fuzz sweeps to keep wall time bounded; run
# them by hand with `ctest --preset asan-ubsan` / `--preset tsan` when
# touching the runtime or exchangers).
#
# Usage: scripts/ci.sh [jobs]   (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."
jobs=${1:-$(nproc)}

echo "=== default preset: configure + build ==="
cmake --preset default
cmake --build --preset default -j "$jobs"

echo "=== default preset: full test suite ==="
ctest --preset default -j "$jobs"

echo "=== frozen benchmark: smoke run ==="
# benchmark/ builds standalone over ../src (into build-bench/), and its
# traced replay must reproduce harness::run's message counters and virtual
# time bit-exactly. A src/ API or timing drift the suite above misses fails
# here instead of in the host-time comparison between revisions.
bash benchmark/run.sh --smoke

echo "=== default preset: kernel perf smoke ==="
# Fast/naive bit-exactness gate for the kernel engine (perf-labeled;
# redundant with the full suite above but kept as an explicit, named gate
# so kernel regressions fail loudly). The measured trajectory itself is
# refreshed by hand with scripts/bench_perf.sh.
ctest --preset default -L perf

echo "=== default preset: critical-path analyzer gate ==="
# Analyzer contract, named so a broken path identity or a drifted report
# fails loudly: unit tests, the golden text report, and the artifact
# schema check (all also in the full suite above).
ctest --preset default -L analyze

echo "=== default preset: transport tier gate ==="
# On-node transport contract (DESIGN.md §13), named so a broken aggregation
# protocol or delivery regression fails loudly: the Aggregator protocol
# unit tests plus the simmpi shm/shm-agg integration (also in the full
# suite above).
ctest --preset default -L transport

echo "=== default preset: overlap tier gate ==="
# Partitioned-request + dependency-scheduler contract (DESIGN.md §14),
# named so a lifecycle or scheduler regression fails loudly: the simmpi
# partitioned lifecycle tests, the harness scheduler property tests, and
# the abl_overlap golden with its strict comm-on-path decrease and
# headroom-bound self-checks (all also in the full suite above).
ctest --preset default -L overlap

echo "=== default preset: autotuner tier gate ==="
# Joint-autotuner contract (DESIGN.md §15), named so a search, memo-cache
# or artifact regression fails loudly: the mapping property tests, the
# tuner unit tests (including replay of the committed artifact), the
# tuned-config schema + CLI byte-determinism check, and the abl_autotune
# golden with its tuned<=hand-picked and warm-cache self-checks (all also
# in the full suite above).
ctest --preset default -L tune

echo "=== default preset: explicit-SIMD tier gate ==="
# Explicit-SIMD kernel contract (DESIGN.md §16), named so a vectorization
# or AoSoA regression fails loudly: the differential width sweeps and
# alignment-guard unit tests, the runtime-dispatched (AVX2 clone) kernels
# against the naive ones, the ISA guard (no AVX code outside the clone,
# no fused multiply-add), the multi-field FieldSet/ArrayFields invariance
# suite, and micro_simd's forced-width differential self-check (all also
# in the full suite above).
ctest --preset default -L simd

echo "=== asan-ubsan preset: configure + build ==="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"

echo "=== asan-ubsan preset: unit-, persistent-, analyze-, transport-, overlap-, tune- and simd-labeled tests ==="
ctest --preset asan-ubsan -j "$jobs" -L 'unit|persistent|analyze|transport|overlap|tune|simd'

echo "=== tsan preset: configure + build ==="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"

echo "=== tsan preset: unit-, persistent-, analyze-, transport-, overlap- and tune-labeled tests ==="
# Every simulated rank is a thread sharing mailboxes, collectives, the
# aggregator, the fabric and obs; any data race TSan sees fails its test.
# The golden captures (label regression) are left out: under TSan the
# abl_overlap and abl_autotune sweeps alone take over ten minutes, and the
# same runtime paths are covered by the unit tests.
ctest --preset tsan -j "$jobs" \
  -L 'unit|persistent|analyze|transport|overlap|tune' -LE regression

echo "=== null-sink build (BRICKX_OBS=OFF): unit tests ==="
# Every obs call site collapses to an inline no-op in this build; it must
# keep compiling and its unit tests (the harness seam pins, minus their
# trace hashes, among them) must keep passing.
cmake -S . -B build-noobs -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBRICKX_OBS=OFF
cmake --build build-noobs -j "$jobs"
ctest --test-dir build-noobs -j "$jobs" --output-on-failure -L unit

echo "=== forced-scalar build (BRICKX_SIMD_WIDTH=1): simd + perf gates ==="
# The width-1 override must stay a first-class build: every SIMD dispatch
# degenerates to the scalar fast tiles, nothing dispatches to the AVX2
# clone (simd_isa_guard finds no AVX code in this build at all), and all
# bit-exactness gates still hold. This is the configuration the `fast`
# rows of BENCH_kernels.json model and the fallback the alignment guard
# selects at runtime.
cmake -S . -B build-scalar -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBRICKX_SIMD_WIDTH=1
cmake --build build-scalar -j "$jobs"
ctest --test-dir build-scalar -j "$jobs" --output-on-failure -L 'simd|perf'

echo "ci.sh: all green"
