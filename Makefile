GO ?= go

# bench/bench-compare knobs: BENCH_OUT is where `make bench` writes its
# result file; BENCH_BASE is the baseline `make bench-compare` gates
# against (the checked-in seed by default).
REV        := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)
BENCH_OUT  ?= BENCH_$(REV).json
BENCH_BASE ?= BENCH_seed.json

.PHONY: build test bench bench-compare bench-smoke bench-go bench-e2e verify verify-race verify-kernel verify-chaos verify-adapt verify-replay verify-claim verify-serve verify-cluster

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the reproducible performance suite (internal/benchkit):
# warmup + repeated timed runs per scenario, robust statistics, and a
# schema-versioned result file for the BENCH_*.json trajectory.
bench:
	$(GO) run ./cmd/benchsuite run -o $(BENCH_OUT)

# bench-compare gates the latest result file against the baseline:
# nonzero exit when a gated metric regresses beyond the threshold
# outside the measured noise interval.
bench-compare:
	$(GO) run ./cmd/benchsuite compare $(BENCH_BASE) $(BENCH_OUT)

# bench-smoke is the fast sanity slice CI runs on every push.
bench-smoke:
	$(GO) run ./cmd/benchsuite run -filter smoke -reps 2 -o /tmp/BENCH_smoke.json

# bench-go is the raw `go test -bench` escape hatch (single iteration,
# no statistics — for quick spot checks only).
bench-go:
	$(GO) test -bench=. -benchtime=1x .

# bench-e2e runs the two end-to-end loopschedd workloads BENCHMARK.json
# gates, each exactly as the benchmark does (fresh daemons built from
# this checkout under .bench_build/). The last line of each is the
# JSON result; E2E_SEED picks the workload seed.
E2E_SEED ?= 1
bench-e2e:
	bash e2ebench/run.sh --workload nest-spin --seed $(E2E_SEED) --seconds 40 --trace 0
	bash e2ebench/run.sh --workload cluster-durable --seed $(E2E_SEED) --seconds 40 --trace 0

# verify is the tier-1 gate: every file is gofmt-clean, everything
# builds, every test passes.
verify:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test ./...

# verify-race re-runs the suite under the race detector; the runner,
# run-manager and cancellation paths are exercised concurrently there.
verify-race:
	$(GO) vet ./...
	$(GO) test -race ./...

# verify-kernel gates the execution-kernel seam: both engines must pass
# the enginetest conformance suite (under the race detector, so the real
# engine's memory ordering is checked too), and the virtual engine must
# still reproduce the committed baseline bit-for-bit — the kernel/Engine/
# ChunkCalculator refactor surface may not change a single simulated
# access sequence.
verify-kernel:
	$(GO) test -race ./internal/enginetest/
	$(GO) run ./cmd/benchsuite run -filter '^(flat/(ss|gss)|many/ss)/virtual$$' -reps 2 -o /tmp/BENCH_kernel.json
	$(GO) run ./cmd/benchsuite compare -bit-identical $(BENCH_BASE) /tmp/BENCH_kernel.json

# verify-chaos gates the fault-tolerance surface: both engines pass the
# chaos conformance suite (deterministic injection, isolate-policy
# coverage, watchdog and panic-path leak regressions) under the race
# detector with shuffled order, and the virtual engine with faults
# disabled still reproduces the committed baseline bit-for-bit.
verify-chaos:
	$(GO) test -race -shuffle=on ./internal/enginetest/ ./internal/core/ ./internal/fault/ ./internal/runmgr/ ./runner/
	$(GO) run ./cmd/benchsuite run -filter '^(flat/(ss|gss)|many/ss)/virtual$$' -reps 2 -o /tmp/BENCH_chaos.json
	$(GO) run ./cmd/benchsuite compare -bit-identical $(BENCH_BASE) /tmp/BENCH_chaos.json

# verify-replay gates the replayable-runs surface: the resume
# conformance matrix (checkpoint at chunk k × scheme × pool, resumed
# runs bit-identical to uninterrupted ones), the journal decoder's fuzz
# seed corpus, and the flight-recorder/journal/checkpoint stacks under
# the race detector with shuffled order; the virtual engine with the
# recorder disabled still reproduces the committed baseline bit-for-bit
# (the replay seams must cost nothing when off).
verify-replay:
	$(GO) test -race -shuffle=on ./internal/flight/ ./internal/journal/ ./internal/enginetest/ ./internal/core/ ./internal/runmgr/ ./runner/ ./cmd/loopschedd/ ./cmd/loopsched/
	$(GO) test -run FuzzDecode ./internal/journal/
	$(GO) run ./cmd/benchsuite run -filter '^(flat/(ss|gss)|many/ss)/virtual$$' -reps 2 -o /tmp/BENCH_replay.json
	$(GO) run ./cmd/benchsuite compare -bit-identical $(BENCH_BASE) /tmp/BENCH_replay.json

# verify-claim gates the claim-path surface (batched leases, sharded SW
# words, claim combining): the batched conformance matrix — exactly-once
# across schemes x pools x both engines x batch factors, plus
# checkpoint/resume through a mid-lease pause — runs under the race
# detector with shuffled order alongside the pool/lowsched/machine unit
# suites; and the virtual engine with every knob at its default (batch
# 1, one shard word, combining off) still reproduces the committed
# baseline bit-for-bit — the contention levers must cost nothing, and
# change nothing, when off.
verify-claim:
	$(GO) test -race -shuffle=on ./internal/enginetest/
	$(GO) test -race -shuffle=on -run 'Claim|Lease|Shard|Combin|Batch' ./internal/lowsched/ ./internal/pool/ ./internal/machine/ ./internal/vmachine/ ./internal/core/
	$(GO) run ./cmd/benchsuite run -filter '^(flat/(ss|gss)|many/ss)/virtual$$' -reps 2 -o /tmp/BENCH_claim.json
	$(GO) run ./cmd/benchsuite compare -bit-identical $(BENCH_BASE) /tmp/BENCH_claim.json

# verify-adapt gates the adaptive-scheduling surface: the auto policy
# passes the full engine conformance matrix and the adapt fitter/
# integration suite under the race detector with shuffled order; the
# benchkit irregular family holds auto within 10% of the best static
# scheme and strictly better than the worst
# (TestIrregularFamilyGatesAuto); and a combined irregular + classic
# virtual slice is compared against the committed baseline — adaptive
# scenarios are exempt from cross-file bit-identity (the fitter
# trajectory is the algorithm under development), the static virtual
# scenarios are not.
verify-adapt:
	$(GO) test -race -shuffle=on ./internal/enginetest/ ./internal/adapt/ ./internal/benchkit/
	$(GO) run ./cmd/benchsuite run -filter '^(irregular/|(flat/(ss|gss)|many/ss)/virtual$$)' -reps 2 -o /tmp/BENCH_adapt.json
	$(GO) run ./cmd/benchsuite compare -bit-identical $(BENCH_BASE) /tmp/BENCH_adapt.json

# verify-serve gates the multi-tenant serving surface: the scheduler
# seam (FIFO golden sequence, WFQ weighted shares, priority preemption
# with exact resume), budget conformance on both engines, tenant
# admission and auth, and the loadcheck workload-checks suite — all
# under the race detector with shuffled order; and the virtual engine
# with scheduler=fifo, no budgets and no tenants still reproduces the
# committed baseline bit-for-bit — the serving seams must cost nothing,
# and change nothing, when off.
verify-serve:
	$(GO) test -race -shuffle=on ./internal/runmgr/ ./runner/ ./cmd/loopschedd/ ./internal/loadcheck/
	$(GO) test -race -shuffle=on -run 'Budget' ./internal/enginetest/ ./internal/core/ .
	$(GO) run ./cmd/benchsuite run -filter '^(flat/(ss|gss)|many/ss)/virtual$$' -reps 2 -o /tmp/BENCH_serve.json
	$(GO) run ./cmd/benchsuite compare -bit-identical $(BENCH_BASE) /tmp/BENCH_serve.json

# verify-cluster gates the resilient-cluster surface: the hardened RPC
# layer (per-attempt deadlines, retry budgets, per-peer breakers,
# deterministic fault injection), membership state machines, the
# three-node placement/proxy/failover chaos suite (seeded faults plus
# a node kill mid-run), the enginetest failover-restore matrix, and
# the journal power-cut fuzz — all under the race detector with
# shuffled order; and the virtual engine with clustering off still
# reproduces the committed baseline bit-for-bit — the cluster seams
# must cost nothing, and change nothing, when off.
verify-cluster:
	$(GO) test -race -shuffle=on ./internal/cluster/ ./cmd/loopschedd/ ./internal/journal/
	$(GO) test -race -shuffle=on -run 'Failover' ./internal/enginetest/
	$(GO) run ./cmd/benchsuite run -filter '^(flat/(ss|gss)|many/ss)/virtual$$' -reps 2 -o /tmp/BENCH_cluster.json
	$(GO) run ./cmd/benchsuite compare -bit-identical $(BENCH_BASE) /tmp/BENCH_cluster.json
