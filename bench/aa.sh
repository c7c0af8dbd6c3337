#!/usr/bin/env bash
# A/A check: runs the end-to-end suite as two interleaved sets of the
# same code (A B A B ..., same seed) and compares them with
# bench/compare. It fails unless every end-to-end metric of every
# workload is `unchanged`: a benchmark that cannot tell a commit from
# itself cannot gate anything. Run from the repository root.
#
#   bench/aa.sh [runs-per-set (default 3)] [seed (default 42)] [seconds (default 18)]
set -euo pipefail

runs=${1:-3} seed=${2:-42} seconds=${3:-18}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=bench/out/aa
rm -rf "$out"
for i in $(seq 1 "$runs"); do
	for side in A B; do
		for w in serve_point serve_join serve_bulk serve_mixed lib_cold; do
			"$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
				--outdir "$out/$side/run$i" | tail -n 1
		done
	done
done
.bench_build/compare -strict "$out/A" "$out/B"
