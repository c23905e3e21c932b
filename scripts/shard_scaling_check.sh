#!/usr/bin/env bash
# Run bench/shard_scaling twice and fail if any row's rounds,
# migrations or migration_batches differ between the runs.  Those
# counters follow from the walker set each shard admits per round
# (locality seeding, the two-shard wave cap and src-ordered inboxes),
# never from thread timing, so two runs of one binary must agree.
# Prints the first run's JSON.
#
# Usage: scripts/shard_scaling_check.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
BENCH="${1:-build}/bench/shard_scaling"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$BENCH" --json "$tmp/a.json" >/dev/null
"$BENCH" --json "$tmp/b.json" >/dev/null
cat "$tmp/a.json"
python3 - "$tmp/a.json" "$tmp/b.json" <<'EOF'
import json
import sys

keys = ("rounds", "migrations", "migration_batches")
a, b = (json.load(open(p)) for p in sys.argv[1:3])
rows = lambda recs: {r["workload"]: r for r in recs}
a, b = rows(a), rows(b)
bad = sorted(a.keys() ^ b.keys())
for w in sorted(a.keys() & b.keys()):
    bad += [f"{w} {k}: {a[w][k]} vs {b[w][k]}"
            for k in keys if a[w][k] != b[w][k]]
if bad or not a:
    print("shard_scaling check: runs differ", *bad, sep="\n  ",
          file=sys.stderr)
    sys.exit(1)
print(f"shard_scaling check: {len(a)} rows repeat {', '.join(keys)}")
EOF
