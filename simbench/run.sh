#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash simbench/run.sh --workload perm-ecmp --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the compiler's temporary files all
# stay under .bench_build/ at the repository root; nothing is fetched.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
# Process-wide simulator defaults (engine, batching, digest mode, EC scheme)
# stay at their built-in values whatever the caller's environment says.
unset UNO_SHARDS UNO_BATCH UNO_DIGEST_DEFER UNO_EC
go -C "$root/simbench" build -o "$out/simbench" .
exec "$out/simbench" "$@"
