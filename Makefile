# The tier-1 gate: everything a PR must keep green.
.PHONY: verify test build vet lint garlint race bench bench-smoke cover qualgate stress test-generic

build:
	go build ./...

vet:
	go vet ./...

# garlint builds the repository's custom vet tool (see cmd/garlint);
# lint runs its seven analyzers (nopanic, ctxpass, mustonly, snaponce,
# lockhold, goexit, errlost) over every package through the go vet
# driver. Add -suppressions/-json/-github after the package list to
# reshape the report.
garlint:
	go build -o bin/garlint ./cmd/garlint

lint: garlint
	go vet -vettool=bin/garlint ./...

test:
	go test ./...

race:
	go test -race ./...

# test-generic covers the portable retrieval kernel: 386 builds use
# vindex's pure-Go block scan instead of the amd64 SSE2 assembly (and
# runs natively on amd64 hosts), and arm64 vet checks the portable
# build of the index package.
test-generic:
	GOARCH=386 go test ./internal/vindex ./internal/vector
	GOARCH=arm64 go vet ./internal/vindex

# verify is the full robustness gate: build, static checks (go vet plus
# the custom garlint analyzers), the whole suite (including the
# fault-injection matrix and the concurrent translate stress test)
# under the race detector, and the translation-quality ratchet.
verify: build vet lint race qualgate

bench:
	go test -bench=. -benchmem

# bench-generalize regenerates the committed BENCH_generalize.json: the
# budget-governed streaming pool build at 1k/10k/100k records, with
# byte-identical-replay, budget-peak, and heap-vs-budget assertions.
bench-generalize:
	go run ./cmd/garbench -bench generalize -iters 3 -benchout BENCH_generalize.json

# bench-smoke is the CI smoke run: one short iteration proving each
# benchmark harness still builds, runs, and passes its equality
# assertions; the JSON goes to a scratch path so CI never dirties the
# committed numbers.
bench-smoke:
	go run ./cmd/garbench -bench generalize -iters 1 -benchout /tmp/BENCH_generalize.json

# cover is the coverage gate: per-package floors live in
# coverage_floors.json and a package may not fall more than one point
# below its floor. After adding tests, ratchet the floors up with
# `go run ./cmd/covergate -write`.
cover:
	go run ./cmd/covergate -floors coverage_floors.json

# qualgate is the translation-quality ratchet: it retrains the committed
# benchmark suites from seed, measures top-1/top-k accuracy and
# translate latency for both the LTR-only and execution-guided
# pipelines, and fails on any accuracy drop (exact — training is
# deterministic) or a p50 regression beyond max(3x baseline, 250ms).
# On failure the measured-vs-committed diff lands in
# BASELINE_quality_diff.json. After a deliberate improvement, ratchet
# with `go run ./cmd/garbench -baseline -write`.
qualgate:
	go run ./cmd/garbench -baseline

# stress runs the overload and resilience suites under the race
# detector: burst admission (deterministic saturation via fault gates),
# snapshot-swap races against live traffic, breaker trip/recover
# cycles, the fault-injection matrix, torn-write persistence, the
# checkpoint crash/recovery drills (write/recover fault matrix, SIGKILL
# mid-write crash matrix, SIGTERM restart round-trip), the fleet
# suite (tenant isolation under faults, per-tenant burst shedding,
# LRU eviction/warm-reactivation churn, fleet restart round-trip), and
# the online learning loop (feedback WAL fault matrix and SIGKILL
# crash drill, shadow-gated promotion, rollback under live traffic).
stress:
	go test -race -timeout 10m -count=1 \
		-run 'TestServeBurst|TestServeReload|TestServeNotReady|TestServeHealthzDegraded|TestSwap|TestRerankBreaker|TestStageBudget|TestPrepareDuringTraffic|TestBreaker|TestAcquire|TestShed|TestQueued|TestBurst|TestBlockGate|TestFault|TestConcurrent|TestLoadModels|TestModelPersistence|TestParallelTranslateDeterminism|TestCheckpoint|TestCrash|TestRecover|TestStore|TestServeRestartSIGTERM|TestServeWarmStart|TestServeAllCorrupt|TestFleet|TestServeFleet|TestFeedback|TestTrainer|TestOnline|TestServeFeedback' \
		./cmd/gar/ ./internal/core/ ./internal/admit/ ./internal/breaker/ ./internal/faults/ ./internal/checkpoint/ ./internal/fleet/ ./internal/feedback/ ./internal/spill/ ./internal/memgov/ ./gar/
