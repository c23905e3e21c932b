#!/usr/bin/env bash
# Bench smoke: the micro_storage SSD-model benchmark (prints its JSON),
# two shard_scaling runs whose migration traffic must repeat
# (scripts/shard_scaling_check.sh), one service_throughput sweep (the
# WalkService end to end), and the fig10_num_walkers and fig15_node2vec
# figures (the small-walker and Node2Vec fine-mode regimes).  A
# non-zero exit of any command fails the script.
#
# Usage: scripts/bench_smoke.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD="${1:-build}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$BUILD/bench/micro_storage" --benchmark_filter=BM_SsdModelRequest \
    --benchmark_min_time=0.01 --json "$tmp/micro_storage.json"
cat "$tmp/micro_storage.json"
scripts/shard_scaling_check.sh "$BUILD"
"$BUILD/bench/service_throughput"
"$BUILD/bench/fig10_num_walkers"
"$BUILD/bench/fig15_node2vec"
