#!/bin/sh
# check.sh runs the full verification gauntlet: build, go vet, the
# repository's own static-analysis suite (cmd/lint), the test suite, the
# race detector and a short fuzz of the answer encoder. CI runs exactly
# this script; run it locally before sending changes.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go run ./cmd/lint -jsonfile lint-findings.json ./..."
go run ./cmd/lint -jsonfile lint-findings.json ./...

echo "==> go test ./..."
go test ./...

# The race pass is also where the seek and bind-join property tests
# (storage: TestSeekHintedEqualsColdEqualsLinear,
# TestReadsAgreeWithModelUnderDeltaAndTombstones; engine:
# TestCompiledProgramMatchesNaive, TestFamiliesMatchNaive) run under the
# detector.
echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -fuzz=FuzzAppendJSONCanonical -fuzztime=10s ./internal/rdf"
go test -run='^$' -fuzz=FuzzAppendJSONCanonical -fuzztime=10s ./internal/rdf

echo "==> scripts/serve_smoke.sh (query service end-to-end)"
./scripts/serve_smoke.sh

echo "==> benchall -feedback (adaptive-cost convergence smoke)"
go run ./cmd/benchall -scale tiny -feedback

echo "==> benchall -factorized (factorized-answer equality smoke)"
go run ./cmd/benchall -scale tiny -factorized

echo "All checks passed."
