# Convenience targets; everything is plain `go` underneath.

GO ?= go

# The deterministic simnet envelopes, named once: `bench-json-sim` writes
# them, `bench-ref` and `bench-gate` (and CI, through make) read them. Each
# name has its bmxd arguments in <name>_ARGS.
SIM_BENCHES := BENCH_4 BENCH_6_pertx BENCH_6_flip BENCH_6_flatfs BENCH_6_lsm BENCH_7_simnet BENCH_9_zipf BENCH_9_churn
TREE4 := -nodes 4 -objects 200 -rounds 8 -workload tree -seed 5 -bunches 4
BENCH_4_ARGS        := $(TREE4)
BENCH_6_pertx_ARGS  := $(TREE4) -store mem -sync pertx
BENCH_6_flip_ARGS   := $(TREE4) -store mem -sync flip
BENCH_6_flatfs_ARGS := $(TREE4) -store flatfs -sync flip
BENCH_6_lsm_ARGS    := $(TREE4) -store lsm -sync flip
BENCH_7_simnet_ARGS := -nodes 3 -objects 120 -rounds 8 -workload tree -seed 5
BENCH_9_zipf_ARGS   := -nodes 3 -objects 150 -rounds 8 -workload zipf -zipf-s 1.2 -seed 5
BENCH_9_churn_ARGS  := -nodes 3 -objects 60 -rounds 8 -workload churn-heavy -seed 5

comma := ,
empty :=
space := $(empty) $(empty)
define newline


endef

.PHONY: all build vet test test-short race chaos chaos-crash bench bench-json bench-json-sim bench-json-tcp bench-ref bench-gate experiments figures examples cover clean

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

# Crash-recovery chaos: seeded kill/restart schedules across both commit
# disciplines and every store backend, plus the Go crash suite under the
# race detector. Each run kills nodes mid-collection on both sides of the
# flip's log force and audits persistence-by-reachability after restart.
chaos-crash:
	$(GO) test -race -run 'Crash|KillRestart|GroupCommit' ./internal/cluster/ ./internal/store/
	$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 600 -seed 1 -sync pertx
	$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 600 -seed 2 -sync flip
	$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 400 -seed 3 -store flatfs -sync flip
	$(GO) run ./cmd/bmxd -chaos-crash -nodes 3 -chaos-steps 400 -seed 4 -store lsm -sync flip

bench:
	$(GO) test -bench=. -benchmem -run xxx .

# Representative workload runs with the time-series sampler on; emit the
# machine-readable benchmark summaries (quantile trajectories, msgs/op, GC
# copy and scan volume) that CI uploads as artifacts and A/B-diffs with
# `bmxstat -bench`. BENCH_4 is the tree workload sharded across four bunches,
# each collected by its own BGC. The BENCH_6 family is the same workload on
# a persistent store: per-transaction commit vs group commit (syncs-per-flip
# is the figure that moves), then the flatfs and LSM backends under group
# commit.
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

figures:
	$(GO) run ./cmd/bmxtrace

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webgraph
	$(GO) run ./examples/persistdb
	$(GO) run ./examples/migration
	$(GO) run ./examples/cadtool

cover:
	$(GO) test ./internal/... . -coverpkg=./internal/...,. -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt bmxd.bench
	rm -f $(filter-out BENCH_REF.json,$(wildcard BENCH_*.json))
