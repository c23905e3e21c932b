#!/usr/bin/env bash
# Tier-1 verification: the full build + test suite, a ThreadSanitizer
# pass over the concurrent suites (the `tsan` test preset in
# CMakePresets.json holds the list), the full suite under
# AddressSanitizer + UBSan (the `asan` preset, as CI's asan job runs
# it: fine views decode through pointers into packed host buffers, so
# an out-of-window read must fail here), the bench smoke shared with CI
# (scripts/bench_smoke.sh: the storage bench, a shard_scaling repeat
# check, one service_throughput sweep and the fig10/fig15 figures),
# and the repository
# benchmark's self-test plus short output-checked runs of
# oc-node2vec-2shard and svc (scripts/walkbench_smoke.sh).
#
# Usage: scripts/tier1.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier 1: build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo
echo "== tier 1: ThreadSanitizer (ctest --preset tsan) =="
cmake --preset tsan >/dev/null
cmake --build build-tsan -j "$JOBS" --target noswalker_tests
ctest --preset tsan

echo
echo "== tier 1: AddressSanitizer + UBSan (ctest --preset asan) =="
cmake --preset asan >/dev/null
cmake --build build-asan -j "$JOBS" --target noswalker_tests
ctest --preset asan -j "$JOBS"

echo
echo "== tier 1: bench smoke (micro_storage ablations + shard scaling repeat check + service sweep) =="
scripts/bench_smoke.sh build >/dev/null

echo
echo "== tier 1: walkbench self-test + oc-node2vec-2shard and svc smoke =="
scripts/walkbench_smoke.sh

echo
echo "tier 1 passed"
