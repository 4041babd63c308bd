#!/usr/bin/env bash
# campaign_smoke.sh — fast merge gate for the campaign engine: run the
# committed tiny grid (internal/campaign/testdata/smoke.json, 8 missions)
# end to end and pin the three campaign contracts at once:
#
#   1. Golden drift: the monolithic study must reproduce the committed
#      smoke_study.golden.json byte for byte. Any change to the spec
#      normalization, job drawing, execution, or merge shows up here.
#   2. Layout invariance: sharding the study (with checkpoints, at
#      workers=N) must emit the identical bytes.
#   3. Interrupt/resume replay: a run halted by -halt-after (exit 3,
#      partial checkpoints on disk) then resumed must also emit the
#      identical bytes — an interruption leaves no trace in the study.
#
# Regenerate the golden only deliberately, when study semantics change:
#   go run ./cmd/experiments -campaign internal/campaign/testdata/smoke.json \
#     -workers 1 -out internal/campaign/testdata/smoke_study.golden.json
# and commit the diff.
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC=internal/campaign/testdata/smoke.json
GOLD=internal/campaign/testdata/smoke_study.golden.json

tmp="$(mktemp -d /tmp/campaign_smoke.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

# A real binary, not `go run`: the interrupt leg asserts on the halted
# exit code 3, which `go run` would collapse into its own exit 1.
go build -o "$tmp/experiments" ./cmd/experiments

echo "== campaign smoke: monolithic study vs committed golden =="
"$tmp/experiments" -campaign "$SPEC" -workers 1 -out "$tmp/mono.json"
if ! diff -u "$GOLD" "$tmp/mono.json" > "$tmp/mono.diff"; then
    echo "FAIL: monolithic study drifted from $GOLD" >&2
    head -40 "$tmp/mono.diff" >&2
    exit 1
fi

echo "== campaign smoke: sharded + checkpointed =="
"$tmp/experiments" -campaign "$SPEC" -shards 4 \
    -checkpoint "$tmp/ckpt_full" -out "$tmp/shard.json"
cmp "$GOLD" "$tmp/shard.json"

echo "== campaign smoke: interrupt after 2 of 4 shards, then resume =="
rc=0
"$tmp/experiments" -campaign "$SPEC" -shards 4 \
    -checkpoint "$tmp/ckpt" -halt-after 2 -out "$tmp/halted.json" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: -halt-after run exited $rc, want 3 (halted)" >&2
    exit 1
fi
if [ -s "$tmp/halted.json" ]; then
    echo "FAIL: halted run wrote a study report" >&2
    exit 1
fi
n="$(find "$tmp/ckpt" -name 'shard-*.json' | wc -l)"
if [ "$n" -ne 2 ]; then
    echo "FAIL: halted run left $n checkpoints, want 2" >&2
    exit 1
fi
"$tmp/experiments" -campaign "$SPEC" -shards 4 \
    -checkpoint "$tmp/ckpt" -resume -out "$tmp/resumed.json"
cmp "$GOLD" "$tmp/resumed.json"

echo "ok: study bytes identical across monolithic, sharded, and interrupt+resume"
