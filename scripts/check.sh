#!/bin/sh
# check.sh runs the full verification gauntlet: build, gofmt, go vet, the
# repository's own static-analysis suite (cmd/lint), the test suite, one
# iteration of each load-path benchmark (BenchmarkBulkLoad), the
# benchmark module's tests, the race detector, short fuzzes of the answer
# encoder, of evaluation against the naive evaluator, of the
# dictionary's identity contract, of the loader's radix sort against a
# comparison sort and of the packed index's reads against a sorted-slice
# reference, and the query service smoke. CI runs
# exactly this script; run it locally before sending changes.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt -l (every tracked Go file must be gofmt-clean)"
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$unformatted" ]; then
    echo "gofmt: these files need gofmt -w:"
    echo "$unformatted"
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/lint -jsonfile lint-findings.json ./..."
go run ./cmd/lint -jsonfile lint-findings.json ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -run '^\$' -bench BulkLoad -benchtime 1x . (the load-path benchmarks compile and run)"
go test -run '^$' -bench BulkLoad -benchtime 1x .

echo "==> (cd bench && go test ./...) (the benchmark module)"
(cd bench && go test ./...)

# The race pass is also where the seek and bind-join property tests
# (storage: TestSeekHintedEqualsColdEqualsLinear,
# TestReadsAgreeWithModelUnderDeltaAndTombstones; engine:
# TestCompiledProgramMatchesNaive, TestFamiliesMatchNaive) run under the
# detector.
echo "==> go test -race ./..."
go test -race ./...

# fuzz runs one fuzz target for 10 s and prints how many inputs it ran.
# Each new input is minimized for at most 1 s: at Go's default of 60 s a
# target can spend most of its 10 s minimizing, running no new inputs.
fuzz() {
    echo "==> go test -fuzz=$1 -fuzztime=10s -fuzzminimizetime=1s $2"
    status=0
    out="$(go test -run='^$' -fuzz="$1" -fuzztime=10s -fuzzminimizetime=1s "$2" 2>&1)" || status=$?
    echo "$out"
    [ "$status" -eq 0 ] || exit "$status"
    echo "$1: $(echo "$out" | grep -o 'execs: [0-9]*' | tail -n 1 | cut -d' ' -f2) execs"
}

fuzz FuzzAppendJSONCanonical ./internal/rdf
fuzz FuzzDisconnectedMatchesNaive ./internal/engine
fuzz FuzzDictionaryIdentity ./internal/dict
fuzz FuzzSortByOrder ./internal/storage
fuzz FuzzPackedBlock ./internal/storage

echo "==> scripts/serve_smoke.sh (query service end-to-end)"
./scripts/serve_smoke.sh

echo "All checks passed."
