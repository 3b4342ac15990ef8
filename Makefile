GO ?= go

.PHONY: all build test vet race race-short repolint staticcheck govulncheck preflight fuzz check bench bench-serve bench-cluster bench-qos bench-pipeline serve-smoke cluster-smoke pipeline-smoke figures clean

# Pinned staticcheck release — CI installs exactly this version so findings
# are reproducible; locally the target is skipped (with a note) when the
# binary is not on PATH, because the build must stay stdlib-only offline.
STATICCHECK_VERSION ?= 2025.1.1

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repository hygiene rules go vet does not cover (seeded randomness only,
# bit-plane mutation stays behind internal/vrf).
repolint:
	$(GO) run ./cmd/repolint

# Pinned staticcheck, if installed (CI pins $(STATICCHECK_VERSION) via
# `go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)`).
# Offline checkouts without the binary skip the target instead of failing.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

# Known-vulnerability scan over the module graph (stdlib-only here, so it
# effectively audits the toolchain). CI installs the scanner; offline
# checkouts without the binary skip the target instead of failing.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI installs golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# Machine-level static verification (commlint) of every shipped kernel and
# application — the same sweep `mastodon preflight` runs before figures.
preflight:
	$(GO) run ./cmd/mastodon preflight

# The race detector slows the simulator ~10x, so the full-suite run needs
# more than `go test`'s default 10m per-package timeout.
race:
	$(GO) test -race -timeout 45m ./...

# The concurrency-sensitive packages only (the sweep worker pool and the
# linter the machine calls from strict mode) plus the trace-engine parity
# difftest, whose replay path shares compiled traces and memoized recipe
# expansions across sweep workers, the parallel-scheduler parity difftest,
# which fans cores out across scheduler goroutines, the serve-layer
# parity and warm-pool hammer tests, and the batch-window tests (joiners
# append to a running batch while a timer goroutine seals it) — fast
# enough for every CI run.
race-short:
	$(GO) test -race -timeout 30m ./internal/sweep ./internal/lint
	$(GO) test -race -timeout 30m -run 'TestTraceParity|TestJITParityRandom|TestParallelMachine|TestParallelDeadlock|TestSnapshotResumeParity' ./internal/machine
	$(GO) test -race -timeout 30m -run 'TestServeParity|TestServePool|TestServePreempt|TestServeNoPreempt|TestParkedGauges|TestPipelineSession|TestBatchingCoalesces|TestWindowOverlapsLatency|TestJoinWhileRunning|TestCloseFiresPendingSeals' ./internal/serve
	$(GO) test -race -timeout 30m -run 'TestRouterParity|TestRollingDrain|TestFairAdmission|TestRouterPipeline' ./internal/router
	$(GO) test -race -timeout 30m -run 'TestPipelineParity' ./internal/fbp

# Bounded runs of the differential oracles: random programs the linter
# passes must execute without ensemble or capacity faults, and random
# straight-line bodies must produce identical planes and stats whether
# rounds replay through the JIT's closure chains or are fully interpreted.
# Accepted snapshot streams must re-encode byte for byte and resume
# without panicking. The comm oracle cross-checks commlint against the real
# scheduler: verdict-clean program sets must run, flagged ones must deadlock. The FBP oracles check
# that the pipeline parser never panics and that every graph the compiler
# accepts is deadlock-free by construction (lint-clean and actually runs).
fuzz:
	$(GO) test -fuzz=FuzzLintSoundness -fuzztime=30s ./internal/isa
	$(GO) test -fuzz=FuzzJITParity -fuzztime=30s ./internal/machine
	$(GO) test -fuzz=FuzzCommSoundness -fuzztime=30s ./internal/lint/comm
	$(GO) test -fuzz=FuzzSnapshotRoundTrip -fuzztime=30s -fuzzminimizetime=2s ./internal/machine
	$(GO) test -fuzz=FuzzFBPParse -fuzztime=30s ./internal/fbp
	$(GO) test -fuzz=FuzzPipelineSoundness -fuzztime=30s ./internal/fbp

# check is the pre-merge gate: build + vet + full test suite + repo lint +
# staticcheck + govulncheck (each when installed). Run `make race` (full
# suite under the race detector) before touching the sweep engine's
# concurrency.
check: build vet test repolint staticcheck govulncheck

# One iteration of every benchmark — a smoke run (also in CI) that keeps the
# reproduction harness executable; steady-state numbers need larger
# -benchtime.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x

# End-to-end daemon check (also in CI): start mpud on a random port, hit
# /healthz, execute one kernel, read /metrics, drain on SIGTERM, exit.
serve-smoke:
	$(GO) run ./cmd/mpud -smoke -quiet

# End-to-end cluster check (also in CI): the mpurouter self-test (2-node
# in-process cluster, routed/direct stats parity), then ~5s of open-loop
# Poisson load through a routed 2-node cluster — any dropped request or
# transport error fails the run.
cluster-smoke:
	$(GO) run ./cmd/mpurouter -smoke
	$(GO) run ./cmd/mpuload -nodes 2 -rate 150 -tenants 2 -duration 5s -elements 64 -strict

# End-to-end pipeline check (also in CI): compile a .fbp graph in-process,
# open a persistent session against a self-hosted daemon, stream records
# across requests (parked between them), and verify the accumulator.
pipeline-smoke:
	$(GO) run ./cmd/mpud -pipeline-smoke -quiet

# The PR 5 load study: 64 closed-loop clients against a self-hosted 4-pool
# daemon with a mid-run SIGTERM drain; fails if any in-flight request drops.
bench-serve:
	$(GO) run ./cmd/mpuload -c 64 -duration 10s -drain -out BENCH_pr5.json

# The PR 8 cluster study: 1/2/4-node throughput scaling, hedged-vs-unhedged
# p99 under one slow node, and a rolling node drain under open-loop load;
# fails below the acceptance floors (1.8x on 1->2 nodes, 30% p99 reduction).
bench-cluster:
	$(GO) run ./cmd/mpuload -cluster-bench -out BENCH_pr8.json

# The PR 9 QoS study: one machine under a resident heavy batch-class job with
# open-loop latency-class arrivals, preemption on vs off; fails below the
# acceptance floors (5x latency p99 improvement, <=15% batch slowdown).
bench-qos:
	$(GO) run ./cmd/mpuload -qos-bench -out BENCH_pr9.json

# The PR 10 pipeline study: a persistent FBP session streams 1000 records
# across 125 requests (zero recompilation after the cold first request),
# then keeps streaming under a concurrent latency-class burst; fails if any
# warm request recompiles or any burst request is shed.
bench-pipeline:
	$(GO) run ./cmd/mpuload -pipeline-bench -out BENCH_pr10.json

figures:
	$(GO) run ./cmd/mastodon all

clean:
	$(GO) clean ./...
