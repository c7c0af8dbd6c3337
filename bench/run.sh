#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root.
#
#   bench/run.sh --workload serve_join --seed 7 --seconds 18 --trace 0
#       one run; the result is the last line of standard output
#   bench/run.sh [--seed N] [--seconds S]
#       every workload, end to end and traced; results in bench/out/
#
# The build and the Go caches stay inside the checkout, under
# .bench_build/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$build"
(cd "$here" && go build -o "$build/bench" . && go build -o "$build/compare" ./compare)

for arg in "$@"; do
	case "$arg" in
	-workload | --workload | -workload=* | --workload=* | -manifest | --manifest)
		exec "$build/bench" "$@"
		;;
	esac
done

status=0
for w in serve_point serve_join serve_bulk serve_mixed lib_cold; do
	"$build/bench" --workload "$w" --trace 0 "$@" || status=1
	"$build/bench" --workload "$w" --trace 1 "$@" || status=1
done
exit $status
