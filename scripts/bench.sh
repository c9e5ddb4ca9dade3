#!/bin/sh
# bench.sh — run the tier-1 figure benchmarks with allocation reporting and
# record the results as a machine-readable JSON snapshot.
#
#   ./scripts/bench.sh                 # full run, writes BENCH_<YYYY-MM-DD>.json
#   ./scripts/bench.sh -short          # 1-iteration smoke (used by ci.sh)
#   BENCH_FILTER='Fig3|Fig8' ./scripts/bench.sh   # subset
#
# The JSON is {"meta": {date, commit, go, cpus, gomaxprocs}, "benchmarks":
# [{name, ns_op, b_op, allocs_op}, ...]} — cpus/gomaxprocs matter since the
# sharded engine benchmarks use worker goroutines: a workers2-vs-workers1
# comparison is only meaningful on a multi-core box, and the snapshot
# records which kind produced it. Compare snapshots with scripts/bench_diff.sh
# (or `go run ./cmd/benchdiff`). If a snapshot for today already exists, a
# -2/-3/... suffix is appended instead of clobbering it. Perf work in this
# repo is gated twice: the golden digests in internal/simtest prove
# behaviour is byte-identical, and these numbers prove the optimization
# actually paid.
set -eu
cd "$(dirname "$0")/.."

FILTER="${BENCH_FILTER:-BenchmarkFig|BenchmarkSimulatorThroughput|BenchmarkEventq|BenchmarkWheelInsert|BenchmarkPortEnqueue|BenchmarkIncastStep|BenchmarkDigestFold|BenchmarkLinkDelivery|BenchmarkTournamentCell|BenchmarkCodecEncode|BenchmarkFountain}"
BENCHTIME="${BENCH_TIME:-1x}"

OUT="BENCH_$(date +%Y-%m-%d).json"
if [ -e "$OUT" ]; then
    n=2
    while [ -e "BENCH_$(date +%Y-%m-%d)-$n.json" ]; do
        n=$((n + 1))
    done
    OUT="BENCH_$(date +%Y-%m-%d)-$n.json"
fi

case "${1:-}" in
-short)
    # Smoke mode: a cheap subset, no snapshot file — just prove the
    # benchmarks still run and report allocations.
    go test -run 'TestNone' -bench 'BenchmarkFig1$|BenchmarkEventqPushPop' \
        -benchtime 1x -benchmem .
    exit 0
    ;;
"") ;;
*)
    echo "usage: $0 [-short]" >&2
    exit 2
    ;;
esac

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# A snapshot of an uncommitted tree records its base commit with -dirty.
COMMIT="$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)"
GOVER="$(go env GOVERSION)"
CPUS="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
MAXPROCS="${GOMAXPROCS:-$CPUS}"

echo "== go test -bench '$FILTER' -benchtime $BENCHTIME -benchmem . =="
go test -run 'TestNone' -bench "$FILTER" -benchtime "$BENCHTIME" -benchmem . | tee "$RAW"

# Convert `go test -bench` lines into JSON. Benchmark lines look like:
#   BenchmarkFig3-8   1   17800000000 ns/op   2745349240 B/op   66600000 allocs/op
awk -v out="$OUT" -v date="$(date +%Y-%m-%d)" -v commit="$COMMIT" -v gover="$GOVER" \
    -v cpus="$CPUS" -v maxprocs="$MAXPROCS" '
BEGIN {
    printf "{\n  \"meta\": {\"date\": \"%s\", \"commit\": \"%s\", \"go\": \"%s\", \"cpus\": \"%s\", \"gomaxprocs\": \"%s\"},\n", \
        date, commit, gover, cpus, maxprocs > out
    printf "  \"benchmarks\": [" > out
}
/^Benchmark/ && /ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""; events = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      bytes = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "events")    events = $(i-1)
    }
    printf "%s\n    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s", \
        n++ ? "," : "", name, ns, bytes == "" ? 0 : bytes, allocs == "" ? 0 : allocs > out
    # The throughput benchmarks report executed simulation events; the
    # sharded engine must execute identical counts at every worker
    # count, so snapshot the metric when present.
    if (events != "") { printf(", \"events\": %s", events) > out }
    printf "}" > out
}
END { printf "\n  ]\n}\n" > out }
' "$RAW"

echo "wrote $OUT"
