# Repro/CI targets for the wavedag reproduction. `make verify` is the
# tier-1 gate; `make benchsmoke` compiles and runs every benchmark once
# so the measurement suite cannot silently rot; `make bench` refreshes a
# full perf snapshot (see BENCH_PR1.json for the PR-1 baseline format).

GO ?= go

.PHONY: verify lint fuzzsmoke benchsmoke benchsmoke-sharded benchsmoke-subshard benchsmoke-admission benchsmoke-survive benchsmoke-snapshot benchsmoke-serve benchsmoke-adapt bench test

verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) lint

# wavedaglint enforces the concurrency and error contracts with four
# analyzers (lockfree, publish, poolpair, errwrap — see the "Static
# analysis & invariants" section of the package docs). Exit 1 with
# file:line diagnostics on any violation.
lint:
	$(GO) run ./cmd/wavedaglint ./...

# Ten seconds per fuzz target: enough to exercise the generators and
# the oracles on every CI run without turning the gate into a soak.
fuzzsmoke:
	$(GO) test -run=NONE -fuzz=FuzzTheorem1Precheck -fuzztime=10s ./internal/wdm
	$(GO) test -run=NONE -fuzz=FuzzPartitionRegions -fuzztime=10s ./internal/digraph
	$(GO) test -run=NONE -fuzz=FuzzDynamicDSATUR -fuzztime=10s ./internal/conflict

test: verify

benchsmoke:
	$(GO) vet ./...
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Sharded-engine smoke: the concurrent churn benchmarks only, at two
# GOMAXPROCS settings, so the batch fan-out path cannot silently rot.
benchsmoke-sharded:
	$(GO) test -run=NONE -bench='Sharded|PoolCalibration' -benchtime=1x -cpu=1,4 ./...

# Two-level smoke: the giant-component churn benchmark (sub-sharding
# off and on) plus the trusted-translation ablation, at two GOMAXPROCS
# settings, so the region/overlay fan-out path cannot silently rot.
benchsmoke-subshard:
	$(GO) test -run=NONE -bench='SubshardChurn|AblationTrustedTranslation' -benchtime=1x -cpu=1,4 ./...

# Admission smoke: the blocking-probability workload (budgeted session
# and sharded engine) plus the reject-cost ablation pair (Theorem-1
# precheck vs color-and-rollback), at two GOMAXPROCS settings.
benchsmoke-admission:
	$(GO) test -run=NONE -bench='AdmissionChurn' -benchtime=1x -cpu=1,4 ./...

# Survivability smoke: churn with interleaved fiber cuts (restoration
# storms, dark parking, revival) on the session and the sharded engine,
# at two GOMAXPROCS settings.
benchsmoke-survive:
	$(GO) test -run=NONE -bench='SurviveChurn' -benchtime=1x -cpu=1,4 ./...

# Query-plane smoke: the lock-free snapshot reads (scalar queries, the
# pooled load-vector copy, per-id lookups) and the four-reader
# concurrent read/write driver, at two GOMAXPROCS settings, so the
# snapshot publication path cannot rot.
benchsmoke-snapshot:
	$(GO) test -run=NONE -bench='SnapshotQuery|SnapshotReaders' -benchtime=1x -cpu=1,4 ./...

# Serving front-end smoke: the write coalescer under concurrent
# closed-loop submitters (blocking backpressure) and the shed fast path
# under sustained overload, at two GOMAXPROCS settings, so the
# submission/dispatch path cannot silently rot.
benchsmoke-serve:
	$(GO) test -run=NONE -bench='ServeCoalesce|ServeShedding' -benchtime=1x -cpu=1,4 ./...

# Self-tuning layout smoke: the drifting-hotspot churn benchmark
# (static subshard layout vs adaptive re-splitting, drift and uniform
# load), at two GOMAXPROCS settings, so the re-layout path — cut
# selection, overlay re-promotion, snapshot republication — cannot
# silently rot.
benchsmoke-adapt:
	$(GO) test -run=NONE -bench='AdaptChurn' -benchtime=1x -cpu=1,4 ./...

bench:
	$(GO) run ./cmd/bench -benchtime 1s -out bench-latest.json
