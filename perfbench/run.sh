#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload serve-sync --seed 1 --seconds 15 --trace 0
# The binary, the Go build cache and the sockets of the traced serve-sync
# run live in $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) abs=$out ;;
*) abs=$PWD/$out ;;
esac
mkdir -p "$abs/gocache" "$abs/tmp"
export GOCACHE=$abs/gocache GOMODCACHE=$abs/gomod GOTMPDIR=$abs/tmp TMPDIR=$abs/tmp
export GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd perfbench && go build -o "$abs/perfbench" .) >&2
exec "$abs/perfbench" -sockdir "$out" "$@"
