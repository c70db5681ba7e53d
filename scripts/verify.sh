#!/usr/bin/env bash
# Full verification, a superset of the tier-1 gate in ROADMAP.md:
#   - gofmt over every tracked Go file (git ls-files, so an ignored
#     build tree such as .bench_build/ is never scanned);
#   - build, vet and every test, plus the benchmark module's smoke test;
#   - race passes over every concurrency-heavy package, then twice over
#     the membership, sync, prefetch-pipeline, copy-free chunk-reply and
#     fetch/span tests;
#   - 5 s fuzz runs of the wire decoder, the direct-read path, the
#     object-stream reassembly, the Counter/Concat combiner decoders
#     and every registered app's reduction-object decoder;
#   - smoke runs (heavily shrunk, digest-checked) of the overlap,
#     autotune, elastic, spot, buffer, sync and advisor experiments,
#     and cbadvise reading the history the advisor run wrote;
#   - the chaos experiment at -records-divisor 10, digest-checked.
# cbbench and cbadvise are built once and the binaries reused.
# Budget, measured on a 2-core x86-64 Linux host: ~60 s wall with warm
# build and test caches; ~100 s after an internal/store change, which
# invalidates the cached results of most packages' tests.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted="$(gofmt -l $(git ls-files '*.go'))"
test -z "$unformatted" || { echo "gofmt -l lists:"; echo "$unformatted"; exit 1; } >&2
go build ./...
go vet ./...
go test ./...
# The benchmark is its own module (benchmark/go.mod), outside ./...:
# its smoke test runs every workload once against the oracle.
(cd benchmark && go test ./...)
go test -race ./internal/cluster/ ./internal/store/ ./internal/chunk/ ./internal/driver/ ./internal/elastic/ ./internal/gr/ ./internal/advisor/ ./internal/wire/ ./internal/apps/
# Dynamic membership (mid-run joins, drain-vs-steal races, elastic
# end-to-end) is the most race-prone surface, streamed sync adds
# concurrent merges fed from connection handlers, and the exchange a
# head-side sender and a master-side reader per head connection: run
# them twice under the race detector so a lucky interleaving can't
# hide a regression. The prefetch goroutine is a worker's only
# concurrent state, so the prefetch and byte-budget tests ride along
# too. The copy-free chunk-reply path (vectored write, direct read,
# lent views) shares one connection between a replying handler,
# heartbeats and an object swap, so its tests ride along, as do
# store.Fetch's span planner and its reader pool (tuner growth and
# retirement, lowest-offset failure bookkeeping). The tail grant cap
# parks the refill loop on the master's cond until a slave handler's
# completion, requeue or failure wakes it, so its tests ride along too.
# So do the master's per-connection exits (slaveConn) and the deploy's
# build phase, which must start nothing when a site fails to build,
# and the striped accumulator, whose spares are lent to decoders while
# other handlers are still folding into it.
go test -race -count=2 -run 'Join|Drain|Elastic|Spot|Preempt|Checkpoint|Revocation|Buffer|Prefetch|Budget|Merge|Sync|Exchange|HeadReader|BlockPath|TailCap|Capped|SlaveConn|StartsNothing|Striped|Spare|Elementwise' ./internal/cluster/ ./internal/gr/
go test -race -count=2 -run 'Vectored|OneWritePerSend|RecvInto|DirectRead|BadReplies|Overlong|LentView|BlockKernel|Plan|Span|Fetch' ./internal/wire/ ./internal/store/ ./internal/apps/
# The wire codec owns every byte on every connection: fuzz the decoder
# and the direct-read path briefly (corrupt frames must error, never
# panic, never write outside the destination).
go test -run '^$' -fuzz FuzzDecode -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz FuzzReadInto -fuzztime 5s ./internal/wire/
# Streamed objects are reassembled from parts a peer numbers: out of
# order, duplicate or misaligned parts must poison the stream, never
# reorder bytes or hang the reader.
go test -run '^$' -fuzz FuzzObjectStream -fuzztime 5s ./internal/wire/
# Reduction objects arrive off the wire too: the hand-rolled Counter
# and Concat decoders must reject corrupt counts and lengths.
go test -run '^$' -fuzz FuzzCombinerDecode -fuzztime 5s ./internal/gr/
# ... and so do whole application objects (knn's TopK, kmeans' sums and
# counts, pagerank's rank vector, wordcount's Counter), decoded into
# the storage NewReduction allocates and into a spare full of another
# object's state: corrupt input must error (the same error both ways),
# and accepted input must re-encode to bytes that decode and re-encode
# the same.
go test -run '^$' -fuzz FuzzReductionDecode -fuzztime 5s ./internal/apps/

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/" ./cmd/cbbench ./cmd/cbadvise
smoke() { "$TMP/cbbench" -experiment "$1" -records-divisor 100 -scale 0.0001 "${@:2}" >/dev/null; }

smoke overlap
# Digest invariance across the autotune grid; win ratios are asserted
# by scripts/bench.sh at full benchmark scale, not at smoke scale.
smoke autotune
# Elastic deadline sweep at smoke scale: validates dynamic membership
# digests (no lost/double-counted chunk across joins and drains); the
# deadline/cost win is asserted by scripts/bench.sh at real scale.
smoke elastic
# Spot preemption sweep at smoke scale: validates that revocation
# recovery (checkpoint adoption, drain flushes, full re-execution)
# never loses or double-counts a chunk. At this scale real loopback
# latencies dwarf the scaled warning window, so drain completions and
# the wall/cost win are asserted by scripts/bench.sh at real scale.
smoke spot
# Burst-buffer ablation at smoke scale: validates digest invariance of
# the site buffer tier (read-through, staging, tiered fallback); the
# wall-clock/egress win is asserted by scripts/bench.sh at real scale,
# where emulated S3 latency dominates loopback noise.
smoke buffer
# Sync ablation at smoke scale: validates digest invariance between
# monolithic and streamed-parallel (transport and merge scheduling
# must never change results); the wall-clock win and merge concurrency
# are asserted by scripts/bench.sh at real scale.
smoke sync
# Advisor warm-vs-cold sequence at smoke scale: validates that the
# history store round-trips records, the warm-started controller keeps
# digests identical to cold-start, and the prediction feedback lands.
# The ramp/wall/cost win is asserted by scripts/bench.sh at real scale.
# ADVISOR_HISTORY_DIR keeps the history database after the run (CI
# uploads it as an artifact); unset, it lands in the throwaway tempdir.
ADVHIST="${ADVISOR_HISTORY_DIR:-$TMP/history}"
smoke advisor -history-dir "$ADVHIST"
# cbadvise must read the history the smoke run just wrote and print a
# burst plan for the same app/link class without running anything.
"$TMP/cbadvise" -history-dir "$ADVHIST" -list | grep -q knn
"$TMP/cbadvise" -history-dir "$ADVHIST" -app knn -env env-50/50 -deadline 60s | grep -q advisor
# Chaos at -records-divisor 10 (~4 s) is the only digest-checked run in
# which faults land on individual fetch spans; at -records-divisor 100
# the run fails with "all clusters lost". grep reads the whole output
# (no -q) so cbbench never writes into a closed pipe.
"$TMP/cbbench" -experiment chaos -records-divisor 10 | grep 'results match' >/dev/null
echo "verify: ok"
