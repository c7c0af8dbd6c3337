#!/bin/sh
# bench.sh runs the benchmark suite at the tiny scale and records the
# results as BENCH_<date>.json in the repository root: one entry per
# benchmark with ns/op and allocs/op, plus the runner's go version,
# GOMAXPROCS and CPU count (the parallel benchmarks only show their
# speedup on a multi-core runner; the metadata makes single-core numbers
# self-explaining). The report also embeds the traced per-stage
# breakdown from `benchall -stagejson`, asserts that disabled
# tracing adds no allocations to the JUCQ hot path (tracealloc), and
# always includes the plan-cache cold/warm pair with its hit rate
# (cachedanswer) and the shared-scan on/off pair with its scan-cache hit
# rate (sharedscan), after running the shared-vs-baseline answer
# equality sweep, and the bulk-load scale sweep from `benchall
# -loadjson` (flat vs compressed load throughput and bytes/triple
# across REPRO_LOAD_SCALES), and the HTTP serve throughput sweep from
# `benchall -servejson` (an in-process rdfserver driven by the load
# generator: QPS and latency percentiles per concurrency level), and
# the adaptive-cost warm-up sweep from `benchall -feedbackjson` (the
# error trajectory of the feedback loop over repeated workload passes,
# gated on the estimation error shrinking at least 2x), and the
# factorized-answer sweep from `benchall -factjson` (bytes/answer under
# the factorized vs flat answer representations, gated on identical
# answers and at least one cross-product query compressing 2x), and the
# response-encode layer from `BenchmarkEncodeResponse` in internal/server,
# and the index-probe and bind-join layers from `BenchmarkProbe`,
# `BenchmarkProbeWithDelta` (internal/storage), `BenchmarkBindJoinMember`
# and `BenchmarkArmPipeline` (internal/engine).
# `make bench-json` and CI run exactly this script.
set -eu

cd "$(dirname "$0")/.."

pattern="${1:-.}"
date="$(date -u +%Y-%m-%d)"
out="BENCH_${date}.json"
raw="$(mktemp)"
stages="$(mktemp)"
load="$(mktemp)"
serve="$(mktemp)"
fbk="$(mktemp)"
fact="$(mktemp)"
trap 'rm -f "$raw" "$stages" "$load" "$serve" "$fbk" "$fact"' EXIT

REPRO_BENCH_SCALE="${REPRO_BENCH_SCALE:-tiny}"
export REPRO_BENCH_SCALE
REPRO_LOAD_SCALES="${REPRO_LOAD_SCALES:-tiny,small,medium}"

echo "==> go test -bench=$pattern -benchmem (scale: $REPRO_BENCH_SCALE)"
go test -run '^$' -bench "$pattern" -benchmem . | tee "$raw"

# tracealloc: the `/off` and `/nil-span` variants of the trace-overhead
# benchmark must allocate identically — attaching no span may not cost
# the hot path anything. Re-run the benchmark on its own if a custom
# pattern excluded it from the main sweep.
echo "==> tracealloc: disabled tracing must add zero allocs/op"
if ! grep -q 'BenchmarkTraceOverhead/off' "$raw"; then
    go test -run '^$' -bench '^BenchmarkTraceOverhead$' -benchmem . | tee -a "$raw"
fi
awk '
    $1 ~ /^BenchmarkTraceOverhead\/off(-[0-9]+)?$/      { off = $(NF-1); seen_off = 1 }
    $1 ~ /^BenchmarkTraceOverhead\/nil-span(-[0-9]+)?$/ { nil = $(NF-1); seen_nil = 1 }
    END {
        if (!seen_off || !seen_nil) {
            print "tracealloc: FAIL — benchmark output missing off/nil-span lines"
            exit 1
        }
        d = nil - off; if (d < 0) d = -d
        tol = off * 0.01; if (tol < 2) tol = 2
        printf "tracealloc: off=%d allocs/op, nil-span=%d allocs/op (tolerance %.0f)\n", off, nil, tol
        if (d > tol) {
            print "tracealloc: FAIL — disabled tracing changes the allocation profile"
            exit 1
        }
    }' "$raw"

# cachedanswer: the plan-cache cold/warm pair (and its hit-rate metric)
# must be in every committed report. Re-run it on its own if a custom
# pattern excluded it from the main sweep.
if ! grep -q 'BenchmarkCachedAnswer/warm' "$raw"; then
    echo "==> cachedanswer: recording plan-cache cold/warm latency"
    go test -run '^$' -bench '^BenchmarkCachedAnswer$' -benchmem . | tee -a "$raw"
fi

# sharedscan: the shared-vs-baseline UCQ pair (with its merged-members
# metric) and the store/snapshot/range scan triple must be in
# every committed report. Re-run them on their own if a custom pattern
# excluded them from the main sweep.
if ! grep -q 'BenchmarkSharedScanUCQ' "$raw"; then
    echo "==> sharedscan: recording shared-scan on/off latency"
    go test -run '^$' -bench '^(BenchmarkSharedScanUCQ|BenchmarkSnapshotScan)$' -benchmem . | tee -a "$raw"
fi

# factorized: the factorized-vs-flat answer pair (with its bytes/answer
# and answers/sec metrics) must be in every committed report. Re-run it
# on its own if a custom pattern excluded it from the main sweep.
if ! grep -q 'BenchmarkFactorizedAnswers' "$raw"; then
    echo "==> factorized: recording factorized vs flat answer footprint"
    go test -run '^$' -bench '^BenchmarkFactorizedAnswers$' -benchmem . | tee -a "$raw"
fi

# encode: the query service's response encoder (ns/row, B/row, allocs/op
# on a flat and a factorized bulk answer) is its own package's benchmark,
# outside the root sweep; it is in every committed report.
echo "==> encode: recording the response-encode layer"
go test -run '^$' -bench '^BenchmarkEncodeResponse$' -benchmem ./internal/server | tee -a "$raw"

# probe / bindjoin: the two layers under the engine's join queries — one
# hinted index probe on the small frozen store (ns/probe, ascending vs
# shuffled keys, with and without a pending delta) and the bind-join
# kernel on one Q01 arm (ns/tuple, allocs/op). Both build LUBM small
# themselves, whatever REPRO_BENCH_SCALE says.
echo "==> probe: recording the index-probe layer"
go test -run '^$' -bench '^(BenchmarkProbe|BenchmarkProbeWithDelta)$' -benchmem ./internal/storage | tee -a "$raw"
echo "==> bindjoin: recording the bind-join kernel and the arm pipeline"
go test -run '^$' -bench '^(BenchmarkBindJoinMember|BenchmarkArmPipeline)$' -benchmem ./internal/engine | tee -a "$raw"

echo "==> benchall -sharedscan (strict shared-vs-baseline equality sweep)"
go run ./cmd/benchall -scale "$REPRO_BENCH_SCALE" -sharedscan

echo "==> benchall -stagejson (traced per-stage breakdown)"
go run ./cmd/benchall -scale "$REPRO_BENCH_SCALE" -stagejson "$stages"

echo "==> benchall -loadjson (bulk-load scale sweep: $REPRO_LOAD_SCALES)"
go run ./cmd/benchall -loadscales "$REPRO_LOAD_SCALES" -loadjson "$load"

echo "==> benchall -servejson (HTTP serve throughput sweep)"
go run ./cmd/benchall -scale "$REPRO_BENCH_SCALE" -servejson "$serve"

echo "==> benchall -feedbackjson (adaptive-cost warm-up sweep, gated at 2x)"
go run ./cmd/benchall -scale "$REPRO_BENCH_SCALE" -feedbackjson "$fbk"

echo "==> benchall -factjson (factorized-answer sweep, equality-gated)"
go run ./cmd/benchall -scale "$REPRO_BENCH_SCALE" -factjson "$fact"

go run ./cmd/benchjson -in "$raw" -stages "$stages" -load "$load" -serve "$serve" -feedback "$fbk" -factorized "$fact" -out "$out"
echo "==> wrote $out"
