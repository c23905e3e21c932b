#!/usr/bin/env bash
# Build and smoke the repository benchmark against the current src/:
# walkbench's own self-test (helper tests + metric-name check), then
# short output-checked runs of oc-node2vec-2shard and svc (the
# WalkService end to end) — the JSON on each run's last line has to
# say "correct": true with "failed": 0.
#
# Usage: scripts/walkbench_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 walkbench/run.py --self-test
for workload in oc-node2vec-2shard svc; do
    last="$(python3 walkbench/run.py --workload "$workload" --seconds 2 |
        tail -n 1)"
    if ! python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r.get("correct") is True and r.get("failed") == 0))' "$last"; then
        echo "walkbench smoke: $workload output checks failed" >&2
        echo "$last" >&2
        exit 1
    fi
    echo "walkbench smoke: $workload correct"
done
