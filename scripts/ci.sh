#!/bin/sh
# ci.sh — the repository's tier-1 gate plus the race detector.
#
# Every simulation is a single-goroutine state machine; the only sanctioned
# concurrency is the harness fan-out layer (harness.RunParallel), so the
# race detector must stay clean across the whole tree. Run this before
# sending a PR:
#
#   ./scripts/ci.sh
#
# or via make: `make ci` (see the Makefile; `make test` is the quicker
# tier-1-only gate).
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

# The benchmark (simbench/) is a module of its own, so the ./... patterns
# above never compile it; vet and test it explicitly.
echo "== simbench module: go vet, go test -short =="
go -C simbench vet ./...
go -C simbench test -short ./...

echo "== go test ./... (with coverage profile) =="
go test -coverprofile=coverage.out ./...

# Soft coverage gate: warn — never fail — if total statement coverage
# drops below the committed baseline (scripts/coverage_baseline.txt,
# refreshed deliberately when coverage moves for a good reason).
TOTAL="$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')"
rm -f coverage.out
BASELINE_FILE=scripts/coverage_baseline.txt
if [ -f "$BASELINE_FILE" ]; then
    BASELINE="$(cat "$BASELINE_FILE")"
    echo "== coverage gate (soft): total ${TOTAL}%, baseline ${BASELINE}% =="
    if awk -v t="$TOTAL" -v b="$BASELINE" 'BEGIN { exit !(t < b - 0.2) }'; then
        echo "ci: WARNING: coverage ${TOTAL}% is below baseline ${BASELINE}% (soft gate, not fatal; refresh $BASELINE_FILE if the drop is intentional)"
    fi
else
    echo "${TOTAL}" > "$BASELINE_FILE"
    echo "ci: wrote initial coverage baseline ${TOTAL}% to $BASELINE_FILE"
fi

# The golden digests — and the invariant observers attached to every
# golden scenario (netsim.AttachInvariants in internal/simtest) — must
# hold across the full delivery × digest-fold matrix: batched link
# delivery on and off (-batch/UNO_BATCH) crossed with inline and deferred
# digest folding (UNO_DIGEST_DEFER). All four cells must reproduce the
# same committed digests byte-for-byte — that is the entire correctness
# argument for both toggles. The full suite above already ran with the
# defaults; rerun the digest + invariant suite once per explicit cell.
#
# The matrix gained a third dimension with the partitioned per-DC engine:
# UNO_SHARDS 1 vs 2. The simtest fixtures are hand-wired single networks
# (engine-independent), so the shards dimension instead runs the harness
# sharded golden: a fixed dual-DC scenario whose committed digest both
# worker counts must reproduce byte-for-byte, with cluster invariant
# observers attached — worker-count independence stated as a golden.
#
# The simtest suite also carries the tournament smoke cell
# (TestGoldenTournamentCell): one coexistence-matrix cell whose committed
# digest every UNO_BATCH × UNO_DIGEST_DEFER cell must reproduce, pinning
# the tournament harness itself into this matrix. Likewise the rateless
# cell (TestGoldenFountainCell): one fountain-experiment cell whose
# committed digest pins the dynamic-schedule transport path (minted
# repair symbols, NACK-driven recovery) across the same matrix.
for batch in on off; do
    for defer_mode in on off; do
        echo "== golden digests + invariants, UNO_BATCH=$batch UNO_DIGEST_DEFER=$defer_mode =="
        UNO_BATCH=$batch UNO_DIGEST_DEFER=$defer_mode go test -count=1 ./internal/simtest/
        for sh in 1 2; do
            echo "== sharded golden, UNO_BATCH=$batch UNO_DIGEST_DEFER=$defer_mode UNO_SHARDS=$sh =="
            UNO_BATCH=$batch UNO_DIGEST_DEFER=$defer_mode UNO_SHARDS=$sh \
                go test -count=1 -run 'TestShardedGoldenDigest' ./internal/harness/
        done
    done
done

# The sharded engine's proof obligations run explicitly under the race
# detector with caching disabled: the metamorphic worker-count equivalence
# property, the cross-shard conservation ledger on the dual-DC fat-tree,
# and the netsim cluster suite (handoff determinism, strided packet IDs,
# the seeded dropped-handoff defect the ledger must catch).
echo "== sharded engine property tests, -race -count=1 =="
for sh in 1 2; do
    UNO_SHARDS=$sh go test -race -count=1 \
        -run 'TestShardedGoldenDigest|TestShardEquivalenceProperty|TestShardedFatTreeConservation' \
        ./internal/harness/
done
go test -race -count=1 -run 'TestCluster|TestBindCross|TestRunBefore' \
    ./internal/netsim/ ./internal/eventq/

# The eventq property tests (wheel-vs-reference-model fire sequences,
# ReserveSeq boundary interleavings, stale-fire checks) are the proof
# obligations of the wheel layout; run them explicitly under the race
# detector with caching disabled so a wheel change can never ride a stale
# cache entry through the full -race sweep below.
echo "== eventq property tests, -race -count=1 =="
go test -race -count=1 \
    -run 'TestWheelModelDifferential|TestReserveSeq|TestRandomInterleavingNoStaleFires' \
    ./internal/eventq/

# The EC block-path regression suite — satisfyBlock release accounting
# under stale/hostile AckBlock, NACK-exhaustion no-rearm, tail-block
# schedule accounting, the closed-form schedule against its materialized
# oracle (minted entries, the 16 B pktState, the per-flow allocation
# budget, the int16 block-size bound), and the fountain transport path
# (minted repair symbols, adaptive redundancy, hostile dynamic-seq
# headers) — runs explicitly with caching disabled so a transport change
# can never ride a stale cache entry through the full -race sweep below.
echo "== EC block-path regressions, -race -count=1 =="
go test -race -count=1 \
    -run 'TestFountain|TestSatisfyBlock|TestBlockNack|TestBlockCompletion|TestAckBlockOutOfRange|TestTailBlock|TestRSTailBlock|TestScheduleMatchesOracle|TestScheduleMintedEntries|TestPktStateSize|TestOpenAllocBudget|TestOpenRejectsOversizedECBlock|TestGilbertElliottDegenerateParams' \
    ./internal/transport/ ./internal/failure/

# Native fuzz targets, briefly: the differential scheduler fuzzer, the
# transport packet-header fuzzer (which also drives the fountain receiver's
# dynamic-arrival path — its corpus once held a sender panic on a hostile
# echoed seq), and the fountain GF(2) decoder fuzzer each get a short
# budget per CI run (the corpus accumulates in the build cache across
# runs; crashes fail CI).
FUZZTIME="${UNO_FUZZTIME:-10s}"
echo "== fuzz smoke, -fuzztime $FUZZTIME each =="
go test -run '^$' -fuzz '^FuzzSchedulerOps$' -fuzztime "$FUZZTIME" ./internal/eventq/
go test -run '^$' -fuzz '^FuzzReceiverPacket$' -fuzztime "$FUZZTIME" ./internal/transport/
go test -run '^$' -fuzz '^FuzzFountainDecode$' -fuzztime "$FUZZTIME" ./internal/ec/

echo "== go test -race ./... =="
go test -race ./...

echo "== bench smoke (scripts/bench.sh -short) =="
./scripts/bench.sh -short

# Soft benchmark-regression gate: run the throughput benchmark once and
# compare against the latest committed snapshot. One sample on a shared
# CI box is noisy, so the gate only warns (the tolerance is generous and
# a failure never fails CI); the authoritative numbers are the snapshots
# recorded by deliberate scripts/bench.sh runs.
LATEST="$(ls BENCH_*.json 2>/dev/null | grep -v baseline | sort -V | tail -1 || true)"
if [ -n "$LATEST" ]; then
    echo "== bench regression gate (soft, vs $LATEST) =="
    # The gate covers the figure-level throughput number plus the
    # per-admission-path enqueue microbenches, so a regression in one
    # port branch (RED, QCN, DRR, trim) is visible even when the
    # end-to-end number hides it.
    FRESH="$(BENCH_FILTER='BenchmarkSimulatorThroughput$|BenchmarkPortEnqueue/' ./scripts/bench.sh |
        awk '/^wrote /{print $2}')"
    if [ -n "$FRESH" ]; then
        ./scripts/bench_diff.sh -tol "${BENCH_GATE_TOL:-25}" "$LATEST" "$FRESH" ||
            echo "ci: WARNING: ns/op regressed >${BENCH_GATE_TOL:-25}% vs $LATEST (soft gate, not fatal)"
        rm -f "$FRESH"
    fi
fi

echo "ci: OK"
