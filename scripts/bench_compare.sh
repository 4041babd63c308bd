#!/usr/bin/env bash
# bench_compare.sh — before/after evidence for the hot path and the
# campaign layer.
#
# Checks out the comparison commit into a throwaway git worktree, copies
# the portable benchmark files in (they use only public API that exists in
# both trees; the allocation-budget tests do not and are NOT copied), runs
# the same benchmark set in both trees with -benchmem, and byte-compares a
# reduced `cmd/experiments` run between the trees — an optimization must
# not change a single output byte.
#
# On top of the cross-tree comparison, the script races the working tree's
# campaign layer against a bare engine run of the same job list, reported
# as missions/sec/core, and fails if sharding costs more than
# MIN_CAMPAIGN_RATIO of the direct throughput — campaign sharding must
# add no per-mission overhead. It also byte-compares a monolithic and a
# sharded study (folded into outputs_identical). Results land in
# BENCH_PR10.json.
#
# Env knobs:
#   BEFORE_REF         git ref of the comparison tree (default: d44d2e7,
#                      the pre-campaign tree)
#   OUT                output JSON path (default: BENCH_PR10.json)
#   BENCHTIME          -benchtime passed to go test (default: 1s; the
#                      campaign race runs 2s — each iteration is a whole
#                      study, so it needs a longer window for a stable
#                      ratio)
#   MIN_CAMPAIGN_RATIO minimum campaign/direct throughput ratio
#                      (default: 0.85 — within run-to-run noise of 1.0)
#   ALLOW_STALE_BEFORE set to 1 to permit a BEFORE_REF older than the
#                      newest committed bench baseline (only for
#                      regenerating a historical BENCH_*.json on purpose)
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

BEFORE_REF="${BEFORE_REF:-d44d2e7}"
OUT="${OUT:-BENCH_PR10.json}"
BENCHTIME="${BENCHTIME:-1s}"
CAMP_BENCHTIME=2s
MIN_CAMPAIGN_RATIO="${MIN_CAMPAIGN_RATIO:-0.85}"
BENCH='^(BenchmarkMissionShort|BenchmarkTick|BenchmarkEKFPredict|BenchmarkEKFPredictHybrid|BenchmarkEKFCorrect|BenchmarkEKFCorrectMasked|BenchmarkEKFCorrectRover|BenchmarkFGMarginals|BenchmarkFGMarginalAllVars)$'
CAMPBENCH='^(BenchmarkCampaignSharded|BenchmarkEngineDirect)$'
PKGS=(./. ./internal/core/ ./internal/ekf/ ./internal/fg/)
PORTABLE=(bench_hotpath_test.go internal/ekf/bench_test.go internal/fg/bench_test.go internal/core/bench_test.go)

# Staleness guard: comparing against a ref older than the newest committed
# bench baseline re-litigates wins the repo has already banked — the
# "before" numbers would predate recorded optimizations and overstate the
# speedup. Fail loudly unless the regeneration is explicitly intentional.
newest_bench="$(git ls-files 'BENCH_*.json' | while read -r f; do
    printf '%s %s\n' "$(git log -1 --format=%ct -- "$f")" "$f"
done | sort -rn | head -1 | cut -d' ' -f2-)"
if [ -n "$newest_bench" ]; then
    bench_commit="$(git log -1 --format=%H -- "$newest_bench")"
    if [ "$(git rev-parse "$BEFORE_REF^{commit}")" != "$bench_commit" ] &&
        git merge-base --is-ancestor "$BEFORE_REF" "$bench_commit"; then
        if [ "${ALLOW_STALE_BEFORE:-0}" != 1 ]; then
            echo "FAIL: BEFORE_REF=$BEFORE_REF predates $newest_bench (committed in ${bench_commit:0:7})." >&2
            echo "      Its numbers would not reflect the newest recorded baseline." >&2
            echo "      Pick a ref at or after ${bench_commit:0:7}, or set ALLOW_STALE_BEFORE=1" >&2
            echo "      to regenerate a historical baseline on purpose." >&2
            exit 1
        fi
        echo "WARN: BEFORE_REF=$BEFORE_REF predates $newest_bench (ALLOW_STALE_BEFORE=1)" >&2
    fi
fi

wt="$(mktemp -d /tmp/bench_before.XXXXXX)"
after_txt="$(mktemp /tmp/bench_after.XXXXXX)"
camp_txt="$(mktemp /tmp/bench_camp.XXXXXX)"
exp_after_md="$(mktemp /tmp/exp_after_md.XXXXXX)"
exp_after_js="$(mktemp /tmp/exp_after_js.XXXXXX)"
study_mono="$(mktemp /tmp/study_mono.XXXXXX)"
study_shard="$(mktemp /tmp/study_shard.XXXXXX)"
cleanup() {
    git worktree remove --force "$wt" >/dev/null 2>&1 || true
    rm -rf "$wt" "$after_txt" "$camp_txt" \
        "$exp_after_md" "$exp_after_js" "$study_mono" "$study_shard"
}
trap cleanup EXIT
rmdir "$wt"

echo "== before worktree: $BEFORE_REF =="
git worktree add --detach "$wt" "$BEFORE_REF" >/dev/null
for f in "${PORTABLE[@]}"; do
    cp "$f" "$wt/$f"
done

before_txt="$wt/bench_before.txt"
echo "== benchmarks: before ($BEFORE_REF) =="
(cd "$wt" && go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" "${PKGS[@]}") |
    grep '^Benchmark' | tee "$before_txt"
echo "== benchmarks: after (working tree) =="
go test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" "${PKGS[@]}" |
    grep '^Benchmark' | tee "$after_txt"
if [ ! -s "$before_txt" ] || [ ! -s "$after_txt" ]; then
    echo "FAIL: a benchmark run produced no results" >&2
    exit 1
fi

metric() { # metric <file> <bench-name> <unit>
    # $2 is the bench name, bare on GOMAXPROCS=1 machines and with a
    # -N suffix otherwise.
    awk -v name="$2" -v unit="$3" '$1 == name || $1 ~ "^"name"-" {
        for (i = 2; i < NF; i++) if ($(i + 1) == unit) { print $i; exit }
    }' "$1"
}
# Campaign overhead race: BenchmarkCampaignSharded runs a 4-shard study
# (shard → collect → checkpoint-free merge) over the same drawn job list
# that BenchmarkEngineDirect feeds straight to the runner engine, so the
# throughput ratio is exactly the campaign layer's per-mission cost.
echo "== campaign race: sharded study vs direct engine (working tree) =="
go test -run '^$' -bench "$CAMPBENCH" -benchmem -benchtime "$CAMP_BENCHTIME" ./internal/campaign/ |
    grep '^Benchmark' | tee "$camp_txt"
camp_mpsc="$(metric "$camp_txt" BenchmarkCampaignSharded missions/sec/core)"
direct_mpsc="$(metric "$camp_txt" BenchmarkEngineDirect missions/sec/core)"
if [ -z "$camp_mpsc" ] || [ -z "$direct_mpsc" ]; then
    echo "FAIL: the campaign race produced no results" >&2
    exit 1
fi
campaign_ratio="$(awk -v c="$camp_mpsc" -v d="$direct_mpsc" 'BEGIN { printf "%.2f", c / d }')"
echo "campaign_ratio: ${campaign_ratio} (${direct_mpsc} direct -> ${camp_mpsc} sharded missions/sec/core)"

echo "== byte-identity: reduced experiment run, before vs after =="
(cd "$wt" && go run ./cmd/experiments -exp all -missions 2 -seed 1 -workers 1 \
    -out "$wt/exp_before.md" -report "$wt/exp_before.json")
go run ./cmd/experiments -exp all -missions 2 -seed 1 -workers 1 \
    -out "$exp_after_md" -report "$exp_after_js"
identical=true
cmp -s "$wt/exp_before.md" "$exp_after_md" || identical=false
cmp -s "$wt/exp_before.json" "$exp_after_js" || identical=false

# Campaign determinism is part of the same contract: a study rendered
# monolithically must be byte-identical to the same study sharded.
echo "== byte-identity: campaign monolithic vs sharded =="
go run ./cmd/experiments -campaign internal/campaign/testdata/smoke.json \
    -workers 1 -out "$study_mono"
go run ./cmd/experiments -campaign internal/campaign/testdata/smoke.json \
    -shards 4 -out "$study_shard"
cmp -s "$study_mono" "$study_shard" || identical=false
echo "outputs_identical: $identical"

awk -v before="$before_txt" -v after="$after_txt" \
    -v ident="$identical" -v bref="$BEFORE_REF" \
    -v aref="$(git describe --always --dirty)" -v benchtime="$BENCHTIME" \
    -v cmpsc="$camp_mpsc" -v dmpsc="$direct_mpsc" \
    -v cratio="$campaign_ratio" -v cmin="$MIN_CAMPAIGN_RATIO" '
function basename_bench(n) { sub(/-[0-9]+$/, "", n); return n }
function load(file, ns, bb, al,    line, f, n) {
    while ((getline line < file) > 0) {
        split(line, f, /[ \t]+/)
        n = basename_bench(f[1])
        ns[n] = f[3]; bb[n] = f[5]; al[n] = f[7]
        if (!(n in seen)) { seen[n] = 1; order[++cnt] = n }
    }
    close(file)
}
BEGIN {
    load(before, bns, bbb, bal)
    load(after, ans, abb, aal)
    printf "{\n"
    printf "  \"before_ref\": \"%s\",\n", bref
    printf "  \"after_ref\": \"%s\",\n", aref
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"outputs_identical\": %s,\n", ident
    printf "  \"campaign\": {\n"
    printf "    \"sharded\": {\"missions_per_sec_core\": %s},\n", cmpsc
    printf "    \"direct\": {\"missions_per_sec_core\": %s},\n", dmpsc
    printf "    \"ratio\": %s,\n", cratio
    printf "    \"min_ratio\": %s\n", cmin
    printf "  },\n"
    printf "  \"benchmarks\": {\n"
    for (i = 1; i <= cnt; i++) {
        n = order[i]
        printf "    \"%s\": {\n", n
        printf "      \"before\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},\n", bns[n], bbb[n], bal[n]
        printf "      \"after\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s},\n", ans[n], abb[n], aal[n]
        printf "      \"speedup\": %.2f\n", bns[n] / ans[n]
        printf "    }%s\n", (i < cnt ? "," : "")
    }
    printf "  }\n"
    printf "}\n"
}' >"$OUT"

echo "== $OUT =="
cat "$OUT"
if [ "$identical" != true ]; then
    echo "FAIL: experiment or study output bytes drifted" >&2
    exit 1
fi
if ! awk -v r="$campaign_ratio" -v m="$MIN_CAMPAIGN_RATIO" 'BEGIN { exit !(r + 0 >= m + 0) }'; then
    echo "FAIL: campaign throughput ratio ${campaign_ratio} below required ${MIN_CAMPAIGN_RATIO}" >&2
    echo "      sharding a study must not cost per-mission throughput" >&2
    exit 1
fi
