#!/usr/bin/env bash
# Builds the audit benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash bench/run.sh --workload audit-quick --seed 2018 --seconds 10 --trace 0
#   bash bench/run.sh -compare A1.json A2.json -- B1.json B2.json
#
# The binary, the Go build cache and every result file stay under
# .bench_build/ in the checkout. The build needs the repository's own
# go.mod one level up; without it the build fails and nothing is printed.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/auditbench" .
exec "$out/auditbench" "$@"
