#!/usr/bin/env bash
# Builds aquila-ledger from the checkout this script sits in and runs it
# with the given flags, e.g.
#
#   bash cmd/aquila-ledger/bench.sh --workload dcgw-cold --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the run's scratch files (serve-churn
# journals) all stay in .bench_build at the checkout root.
set -euo pipefail
cd "$(dirname "$0")/../.."
build="$PWD/.bench_build"
mkdir -p "$build/go-tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/go-tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/aquila-ledger" ./cmd/aquila-ledger
exec "$build/aquila-ledger" "$@"
