#!/usr/bin/env bash
# Reproduce the retrieval-pipeline experiments and leave machine-
# readable records:
#
# Each experiment prints its variants x metrics table and writes it in
# the one JSON table schema (a list of bench.Table):
#
#   - `cbbench -experiment overlap` (prefetch on/off x chunk cache
#     on/off, on knn single-pass and pagerank power iterations, all
#     data in S3) -> BENCH_overlap.json
#   - `cbbench -experiment autotune` (static-2 / static-8 fetch threads
#     vs the AIMD controller, env-cloud and split deployments,
#     digest-checked, with the controller's win ratios enforced)
#     -> BENCH_autotune.json
#   - `cbbench -experiment elastic` (deadline sweep: local-only misses
#     the deadline, the elastic controller bursts to meet it at lower
#     cost than an over-provisioned static fleet, and a drain variant
#     sheds surplus workers mid-run; digest-checked, win enforced)
#     -> BENCH_elastic.json
#   - `cbbench -experiment spot` (seeded revocation trace replayed
#     against warned drains, checkpointed recovery, and full
#     re-execution; digest-checked, checkpoint deadline/requeue win
#     enforced) -> BENCH_spot.json
#   - `cbbench -experiment buffer` (site burst-buffer tier: no-buffer
#     vs cold-buffer vs master-staged buffer on knn single-pass and
#     pagerank power iterations, all data in S3; digest-checked, with
#     the staged variant's wall-clock and S3-egress win enforced on
#     the multi-iteration run) -> BENCH_buffer.json
#   - `cbbench -experiment sync` (global-reduction sync ablation:
#     monolithic single-frame baseline vs streamed part frames with a
#     parallel merge tree, on the large-rank-vector pagerank in
#     env-cloud; digest-checked, with the streamed-parallel wall-clock
#     win and merge concurrency enforced) -> BENCH_sync.json
#   - `cbbench -experiment advisor` (history-driven burst advisor:
#     cold-start elastic run recorded into the history database, then
#     two advisor-planned runs warm-started from it; digest-checked,
#     with the warm runs' reactive-ramp elimination and
#     equal-or-better wall clock enforced) -> BENCH_advisor.json
#
# Usage:
#   scripts/bench.sh                # default: -records-divisor 10
#   DIVISOR=1 scripts/bench.sh      # full-size (slow, paced run)
#   DIVISOR=50 ITERS=5 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

DIVISOR="${DIVISOR:-10}"
ITERS="${ITERS:-3}"
OUT="${OUT:-BENCH_overlap.json}"
AUTOTUNE_OUT="${AUTOTUNE_OUT:-BENCH_autotune.json}"
ELASTIC_OUT="${ELASTIC_OUT:-BENCH_elastic.json}"
SPOT_OUT="${SPOT_OUT:-BENCH_spot.json}"
BUFFER_OUT="${BUFFER_OUT:-BENCH_buffer.json}"
SYNC_OUT="${SYNC_OUT:-BENCH_sync.json}"
ADVISOR_OUT="${ADVISOR_OUT:-BENCH_advisor.json}"
HISTORY_DIR="${HISTORY_DIR:-.cloudburst-history}"
# The sync ablation runs one notch below the default divisor, the
# scale its recorded history (EXPERIMENTS.md) was measured at.
SYNC_DIVISOR="${SYNC_DIVISOR:-8}"

# Every experiment runs even when an earlier gate fails, so each
# record is refreshed; the script then exits non-zero naming every
# experiment whose run or gate failed.
failed=()
bench() { go run ./cmd/cbbench -experiment "$@" || failed+=("$1"); }

bench overlap \
	-records-divisor "$DIVISOR" \
	-overlap-iters "$ITERS" \
	-json "$OUT"

bench autotune \
	-records-divisor "$DIVISOR" \
	-check-win \
	-json "$AUTOTUNE_OUT"

bench elastic \
	-records-divisor "$DIVISOR" \
	-check-win \
	-json "$ELASTIC_OUT"

bench spot \
	-records-divisor "$DIVISOR" \
	-check-win \
	-json "$SPOT_OUT"

bench buffer \
	-records-divisor "$DIVISOR" \
	-overlap-iters "$ITERS" \
	-check-win \
	-json "$BUFFER_OUT"

bench sync \
	-records-divisor "$SYNC_DIVISOR" \
	-check-win \
	-json "$SYNC_OUT"

# A fresh history per invocation keeps the cold run genuinely cold
# (records from earlier bench runs would warm it and deflate the
# measured ramp savings).
rm -rf "$HISTORY_DIR"
bench advisor \
	-records-divisor "$DIVISOR" \
	-history-dir "$HISTORY_DIR" \
	-check-win \
	-json "$ADVISOR_OUT"

if ((${#failed[@]})); then
	echo "bench: failed: ${failed[*]}" >&2
	exit 1
fi
