# Build, verification and benchmark entry points. `make check` is the
# tier-1 gate; `make bench` overwrites BENCH_table1.json with a fresh
# perf sample (the committed copy is the baseline bench-gate compares
# against).
#
# CI (.github/workflows/ci.yml) runs these same targets — build/vet/test
# on a Go version matrix, `race` and `fmt-check` as separate jobs, and a
# bench smoke run (`make bench BENCH_COUNT=1`) whose BENCH_table1.json
# is uploaded as a workflow artifact. Keep local and CI invocations
# identical by changing the targets here, not the workflow.

GO ?= go

# Benchmark sample count; CI's bench-smoke job overrides this to 1.
BENCH_COUNT ?= 3

# Pinned staticcheck build for `make staticcheck` (and CI's lint job);
# fetched through the module cache, never added to go.mod.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build check vet test race bench-check fmt-check staticcheck bench bench-gate bench-pair fuzz-smoke chaos examples-smoke serve-smoke shard-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fails when any file is not gofmt-formatted (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Pinned staticcheck over the whole tree. `go run pkg@version` fetches
# the tool from the module proxy into GOMODCACHE when it is not
# already there (the pin is never added to go.mod, so a fresh CI
# runner whose restored cache predates the pin pays one download).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# The benchmark harness (bench/, BENCHMARK.json) is its own module
# compiled against this one, so tier-1 neither builds nor tests it. Vet
# and test it here (a few seconds, no network) so a change that breaks
# its compile surface fails `make check`, not the benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: build vet test race bench-check

# Perf trajectory: Table 1 keyword-graph construction, the ablation
# benches, the Section 4 cluster-graph/simjoin benches, the index
# backend benches, the extsort record-format/pre-merge-combine
# before/afters, the HTTP serving-layer load benches and the live
# ingest benches (Push, multi-segment search) and the scatter-gather
# coordinator benches (1/2/4 shards, hot and cold), in test2json
# format (one JSON object per line). BENCH_OUT redirects the dump
# (bench-gate writes an untracked file so the committed trajectory is
# never clobbered).
BENCH_OUT ?= BENCH_table1.json
bench:
	$(GO) test -run '^$$' -bench 'Table1|Ablation|ClusterGraph|SimJoin|DiskIndex|Extsort|Serve|Push|MultiSegment|Shard' -benchmem -count $(BENCH_COUNT) -json . > $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT) ($$(grep -c '"Action":"output"' $(BENCH_OUT)) output events)"

# Regression gate: rerun the bench set once into the untracked
# BENCH_fresh.json and compare against the committed BENCH_table1.json
# baseline, failing on a >BENCH_THRESHOLDx slowdown of any benchmark
# present in both dumps (cmd/benchdiff). Idempotent: the tracked
# baseline is never overwritten, so repeated local runs keep comparing
# against the same reference. CI's bench-smoke job runs this and
# uploads both files. The baseline was recorded on a different machine
# than the CI runner, so the threshold is deliberately loose (it
# catches order-of-magnitude regressions, not percent drift); if
# runner hardware ever wedges the gate, bump BENCH_THRESHOLD or
# re-record the baseline with `make bench`.
BENCH_THRESHOLD ?= 2.0
bench-gate:
	$(MAKE) bench BENCH_COUNT=1 BENCH_OUT=BENCH_fresh.json
	$(GO) run ./cmd/benchdiff -old BENCH_table1.json -new BENCH_fresh.json -threshold $(BENCH_THRESHOLD)

# A performance claim's evidence: PAIRS paired runs of one BENCHMARK.json
# workload at PARENT and at the working tree, alternating which side
# runs first, with each end-to-end metric's medians, quartiles, pairs
# won and verdict beside its bound (scripts/bench-pair.sh; a pair takes
# about a minute).
PARENT ?= HEAD~1
WORKLOAD ?= solve_paper
PAIRS ?= 10
bench-pair:
	bash scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Native fuzz targets, ~60s each — the nightly fuzz job's entry point.
FUZZTIME ?= 60s
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzSolverEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzDiskIndexRoundTrip -fuzztime $(FUZZTIME)

# Chaos gate: the whole fault-injection suite under the race detector.
# Everything prefixed TestFault* runs against internal/faultfs-injected
# EIO/ENOSPC/cancellation, and the server degradation tests (panic
# recovery, breaker trips, stale-on-error) exercise the failure model
# one layer up. CI's examples job runs this target; it is also the
# first thing to run when touching the retry/corruption/cleanup paths.
chaos:
	$(GO) test -race ./internal/faultfs
	$(GO) test -race -run 'Fault|Panic|Breaker|Stale|Retry|Corrupt|ReadyzOpenFailure' ./internal/diskstore ./internal/extsort ./internal/index ./internal/server .

# Example drift gate: the examples are the Engine API's showcase, so
# they build, vet, and quickstart runs end to end against the demo
# corpus. CI's examples job runs this target.
examples-smoke:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...
	$(GO) run ./examples/quickstart

# Serving-layer smoke: boot blogserved on the demo corpus, curl every
# endpoint, assert a cache hit, the 400 mapping and a clean SIGTERM
# drain (scripts/serve-smoke.sh; the admission/429 path is covered
# deterministically by the internal/server race tests). CI's examples
# job runs this after examples-smoke.
serve-smoke:
	sh scripts/serve-smoke.sh

# Sharded-serving smoke: boot two blogserved shard servers on interval
# slices of the demo corpus plus a scatter-gather coordinator fanning
# out to them, assert the cross-boundary answers match an unsharded
# reference byte for byte, push an interval through the coordinator
# (composite generation bump + exact cache eviction), and drain all
# four processes cleanly (scripts/shard-smoke.sh). CI's examples job
# runs this after serve-smoke.
shard-smoke:
	sh scripts/shard-smoke.sh

# Removes only what builds and runs leave behind; BENCH_table1.json is
# the committed baseline and stays.
clean:
	rm -f BENCH_fresh.json
	rm -rf .bench_build
