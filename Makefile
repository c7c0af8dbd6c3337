# Standard entry points; `make check` is the full gauntlet CI runs.

GO ?= go

.PHONY: build test race vet lint lint-fix-fixtures bench profile-join profile-cold serve-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/lint -jsonfile lint-findings.json ./...

# lint-fix-fixtures regenerates the analyzer golden files after an
# intentional change to fixture code or diagnostic messages.
lint-fix-fixtures:
	$(GO) test ./internal/lint -run 'TestAnalyzerFixtures|TestIgnoreDirectives|TestStaleDirectives$$' -update

bench:
	$(GO) test -bench=. -benchmem

# profile-join takes the CPU profile ROADMAP and EXPERIMENTS.md quote for
# join queries (Figure 10's gcov and saturation bars at the small scale)
# and prints its top entries; the profile and the test binary stay under
# PROFILE_DIR. PROFILE_QUERIES='Q01|Q08|Q09|Q13|Q18|Q23' covers serve_join.
PROFILE_DIR ?= /tmp/repro-profile
PROFILE_QUERIES ?= Q01|Q09|Q23
profile-join:
	mkdir -p $(PROFILE_DIR)
	REPRO_BENCH_SCALE=small $(GO) test -run '^$$' \
		-bench 'BenchmarkStrategyEvaluation/($(PROFILE_QUERIES))/(gcov|saturation)' \
		-benchtime 30x -cpuprofile $(PROFILE_DIR)/join.prof -o $(PROFILE_DIR)/repro.test .
	$(GO) tool pprof -top -nodecount 30 $(PROFILE_DIR)/repro.test $(PROFILE_DIR)/join.prof

# profile-cold takes the CPU profile of cold planning (the cover search
# lib_cold runs on every operation) on the queries whose reformulations
# split into the most instantiation blocks, and prints its top entries.
profile-cold:
	mkdir -p $(PROFILE_DIR)
	REPRO_BENCH_SCALE=small $(GO) test -run '^$$' \
		-bench 'BenchmarkCoverSearch/(Q02|Q09|Q24|Q28)/(ecov|gcov)' \
		-benchtime 20x -cpuprofile $(PROFILE_DIR)/cold.prof -o $(PROFILE_DIR)/repro.test .
	$(GO) tool pprof -top -nodecount 30 $(PROFILE_DIR)/repro.test $(PROFILE_DIR)/cold.prof

# serve-smoke exercises rdfserver end to end over curl on an ephemeral port.
serve-smoke:
	./scripts/serve_smoke.sh

check:
	./scripts/check.sh
