#!/usr/bin/env bash
# Build and smoke the repository benchmark against the current src/:
# walkbench's own self-test (helper tests + metric-name check), then a
# short oc-node2vec-2shard run that must pass its output checks — the
# JSON on the last line has to say "correct": true.
#
# Usage: scripts/walkbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 walkbench/run.py --self-test
last="$(python3 walkbench/run.py --workload oc-node2vec-2shard --seconds 2 |
    tail -n 1)"
if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1]).get("correct") is not True)' "$last"; then
    echo "walkbench smoke: oc-node2vec-2shard output checks failed" >&2
    echo "$last" >&2
    exit 1
fi
echo "walkbench smoke: oc-node2vec-2shard correct"
