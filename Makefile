# Convenience targets; everything is plain `go` underneath.

GO ?= go

# The deterministic simnet envelopes, named once: `bench-json-sim` writes
# them, `bench-ref` and `bench-gate` (and CI, through make) read them. Each
# name has its bmxd arguments in <name>_ARGS.
SIM_BENCHES := BENCH_4 BENCH_7_simnet BENCH_9_zipf BENCH_9_churn
TREE4 := -nodes 4 -objects 200 -rounds 8 -workload tree -seed 5 -bunches 4
BENCH_4_ARGS        := $(TREE4) -store mem
BENCH_7_simnet_ARGS := -nodes 3 -objects 120 -rounds 8 -workload tree -seed 5
BENCH_9_zipf_ARGS   := -nodes 3 -objects 150 -rounds 8 -workload zipf -seed 5
BENCH_9_churn_ARGS  := -nodes 3 -objects 60 -rounds 8 -workload churn-heavy -seed 5

comma := ,
empty :=
space := $(empty) $(empty)
define newline


endef

.PHONY: all build vet test test-short race chaos chaos-crash bench profile-gc bench-json bench-json-sim bench-json-tcp bench-ref bench-gate experiments examples cover loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# Seeded chaos soak: duplication + delay + partitions over the full test
# suite's fault tests, plus a fixed-seed bmxd storm.
chaos:
	$(GO) test -race -run 'Chaos|Fault|Dup|Delay|Partition|LossGap' ./internal/...
	$(GO) run ./cmd/bmxd -chaos -nodes 3 -chaos-steps 400 -seed 1 -loss 0.05 -dup 0.15 -delay 0.2
	$(GO) run ./cmd/bmxd -chaos -nodes 4 -chaos-steps 300 -seed 42 -dup 0.25 -delay 0.3 -partition-every 50 -partition-for 15

# Crash-recovery chaos: seeded kill/restart schedules across every store
# backend, plus the Go crash suite under the race detector. Each run kills
# nodes mid-collection on both sides of the flip's log force and audits
# persistence-by-reachability after restart.
# The flatfs runs use a fresh real directory, so recovery reads back what
# their tail writes and fsyncs actually left on disk; the seed-5 one must
# print byte for byte what the same run on the in-memory store prints.
chaos-crash:
	$(GO) test -race -run 'Crash|KillRestart|FlipForces' ./internal/cluster/ ./internal/store/
	$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 600 -seed 1
	$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 600 -seed 2
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
		$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 400 -seed 3 -store flatfs -store-dir "$$d"
	$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 400 -seed 4 -store lsm
	d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
		$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 400 -seed 5 -store flatfs -store-dir "$$d/store" -stats-json > "$$d/flatfs.json"; \
		s=$$?; cat "$$d/flatfs.json"; [ $$s -eq 0 ] && \
		$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 400 -seed 5 -store mem -stats-json | diff "$$d/flatfs.json" -

bench:
	$(GO) test -bench=. -benchmem -run xxx .

# CPU profile of the collector alone: BenchmarkCollectChurn runs gc_persist's
# collection rounds without mutator traffic or a store. Writes gc.prof (and
# the bmx.test binary pprof reads it with) and prints the profile's top.
profile-gc:
	$(GO) test -run '^$$' -bench CollectChurn -benchtime 400x -cpuprofile gc.prof -o bmx.test .
	$(GO) tool pprof -top -nodecount 40 bmx.test gc.prof

# Representative workload runs with the time-series sampler on; emit the
# machine-readable benchmark summaries (quantile trajectories, msgs/op, GC
# copy and scan volume) that CI uploads as artifacts and A/B-diffs with
# `bmxstat -bench`. BENCH_4 is the tree workload sharded across four bunches,
# each collected by its own BGC, on the mem store: each round commits (and
# forces) one transaction, so syncs-per-flip is the persistence figure it
# gates. There is no envelope per backend: flatfs reports exactly what mem
# does and lsm differs only in bytes synced (`make chaos-crash` and
# TestCrashChaosFlatFS check that).
# BENCH_7 runs the same tree workload once on the simulated network and
# once as a real 3-process TCP cluster over loopback, and A/B-diffs them:
# the paper's accounting figures (msgs/op, piggyback volume, zero collector
# acquires) must survive the move to real sockets. The BENCH_9 pair runs the
# skewed-locality workloads — zipf (hot-object head) and churn-heavy
# (allocation/death storm) — whose remote-access ratio and owner-mismatch
# count the regression gate watches.
bench-json: bench-json-sim bench-json-tcp
	$(GO) run ./cmd/bmxstat -bench BENCH_7_simnet.json -diff BENCH_7_tcp.json

bench-json-sim:
	$(foreach b,$(SIM_BENCHES),$(GO) run ./cmd/bmxd $(or $($(b)_ARGS),$(error no $(b)_ARGS)) -bench-json $(b).json$(newline))

# Regenerate the committed regression-gate reference from a fresh run of
# the deterministic simnet benchmarks. Commit the result when a change
# legitimately moves the numbers.
bench-ref: bench-json-sim
	$(GO) run ./cmd/bmxstat -make-ref -bench $(subst $(space),$(comma),$(addsuffix .json,$(SIM_BENCHES))) > BENCH_REF.json

# Gate the current deterministic benchmarks against the committed reference;
# exits non-zero on drift beyond 25%. Same check CI runs in metrics-smoke.
bench-gate: bench-json-sim
	for b in $(SIM_BENCHES); do \
		$(GO) run ./cmd/bmxstat -bench $$b.json -ref BENCH_REF.json -gate 25 || exit 1; \
	done

bench-json-tcp:
	$(GO) build -o ./bmxd.bench ./cmd/bmxd
	./bmxd.bench -listen 127.0.0.1:39412 -peers 127.0.0.1:39411,127.0.0.1:39413 -workload tree -objects 120 -rounds 8 -seed 5 & \
	./bmxd.bench -listen 127.0.0.1:39413 -peers 127.0.0.1:39411,127.0.0.1:39412 -workload tree -objects 120 -rounds 8 -seed 5 & \
	./bmxd.bench -listen 127.0.0.1:39411 -peers 127.0.0.1:39412,127.0.0.1:39413 -workload tree -objects 120 -rounds 8 -seed 5 -bench-json BENCH_7_tcp.json; \
	status=$$?; wait; rm -f ./bmxd.bench; exit $$status

experiments:
	$(GO) run ./cmd/bmxbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webgraph
	$(GO) run ./examples/persistdb
	$(GO) run ./examples/migration
	$(GO) run ./examples/cadtool

cover:
	$(GO) test ./internal/... . -coverpkg=./internal/...,. -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

# Non-test Go lines outside bench/: the line budget ROADMAP.md tracks.
loc:
	find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l

clean:
	rm -f cover.out test_output.txt bench_output.txt bmxd.bench gc.prof bmx.test
	rm -f $(filter-out BENCH_REF.json,$(wildcard BENCH_*.json))
