# Build, verification and benchmark entry points. `make check` is the
# tier-1 gate. Performance is measured by one system, bench/ +
# BENCHMARK.json (`bash bench/run.sh`, `make bench-pair`); `make bench`
# only prints the one go-test benchmark an open ROADMAP decision still
# needs (DESIGN.md "Benchmarks").
#
# CI (.github/workflows/ci.yml) runs these same targets — build/vet/test,
# cpu-matrix and bench-check on a Go version matrix, `race` and `fmt-check` as
# separate jobs. Keep local and CI invocations identical by changing
# the targets here, not the workflow.

GO ?= go

# Pinned staticcheck build for `make staticcheck` (and CI's lint job);
# fetched through the module cache, never added to go.mod.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: all build check vet test race cpu-matrix bench-check fmt-check staticcheck bench bench-pair fuzz-smoke chaos examples-smoke cli-smoke serve-smoke shard-smoke clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Worker-count coverage without a knob: the interval pool, the disk
# index build's interval pool and the cluster-graph edge tasks size
# themselves from GOMAXPROCS, so the tests that hold them to sequential
# references — pinned segment bytes, the first bad interval's error,
# segments equal to the reference index, a worker's reused interval
# builder against fresh builds (TestIntervalBuilderReuseMatchesFresh),
# each edge task's span of its worker's join buffer
# (TestFromClustersParallelEquivalence, in the clustergraph package
# run) — run at 1, 2 and 8 workers, as do the
# Store's reads racing its pushes and compactions
# (TestStoreReadsDuringPushAndCompact) and solves sharing the spare
# solver workspace (TestSolveStateReuseMatchesFresh), for more
# interleavings.
cpu-matrix:
	$(GO) test -cpu 1,2,8 -run '^(TestSection4ParallelEquivalence|TestAllIntervalClustersBudgetSplit|TestEnginePushIncremental|TestIntervalBuilderReuseMatchesFresh)$$' .
	$(GO) test -cpu 1,2,8 -run '^(TestSegmentBytesPinned|TestBuildDiskRejectsBadInput|TestDiskEquivalenceRandom|TestDiskSmallBlockSizes|TestIndexAgreesWithCooccur|TestStoreDeltaEquivalence|TestStoreCompactionByteEquality|TestStoreReadsDuringPushAndCompact)$$' ./internal/index
	$(GO) test -cpu 1,2,8 -run '^TestBuildPrunedMatchesPrune$$' ./internal/cooccur
	$(GO) test -cpu 1,2,8 -run '^TestSolveStateReuseMatchesFresh$$' ./internal/core
	$(GO) test -cpu 1,2,8 ./internal/clustergraph ./internal/par

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

check: build vet test race cpu-matrix bench-check

# The one go-test benchmark left in the root package, on standard
# output; nothing is written or tracked.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# A performance claim's evidence: PAIRS paired runs of one BENCHMARK.json
# workload at PARENT and at the working tree, alternating which side
# runs first, with each end-to-end metric's medians, quartiles, pairs
# won and verdict beside its bound (scripts/bench-pair.sh; a pair takes
# about a minute). WORKLOAD=all runs every workload BENCHMARK.json
# names, one table each: what a change that claims no gain reports.
# LAYERS=1 in the environment adds one traced run a side and prints the
# per-layer metrics that differ by more than 5 %.
PARENT ?= HEAD~1
WORKLOAD ?= solve_paper
PAIRS ?= 10
bench-pair:
	bash scripts/bench-pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# Native fuzz targets, ~60s each — the nightly fuzz job's entry point.
FUZZTIME ?= 60s
fuzz-smoke:
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzSolverEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzPathHeapsMatchTopK -fuzztime $(FUZZTIME)
	$(GO) test ./internal/index -run '^$$' -fuzz FuzzDiskIndexRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cooccur -run '^$$' -fuzz FuzzBuildMatchesNaive -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cooccur -run '^$$' -fuzz FuzzBuildPruned -fuzztime $(FUZZTIME)
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzQueryRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/text -run '^$$' -fuzz FuzzFirstKeyword -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bicc -run '^$$' -fuzz FuzzDecompose -fuzztime $(FUZZTIME)
	$(GO) test ./internal/clustergraph -run '^$$' -fuzz FuzzJoinMatchesPairLoop -fuzztime $(FUZZTIME)

# Chaos gate: the whole fault-injection suite under the race detector.
# Everything prefixed TestFault* runs against internal/faultfs-injected
# EIO/ENOSPC/cancellation, and the server degradation tests (panic
# recovery, breaker trips, the request-outcome contract, cached answers
# outliving an Engine outage, a replaced session's cache) exercise the
# failure model one layer up. CI's examples job runs this target; it is also the
# first thing to run when touching the retry/corruption/cleanup paths.
chaos:
	$(GO) test -race ./internal/faultfs
	$(GO) test -race -run 'Fault|Panic|Breaker|Retry|Corrupt|ReadyzOpenFailure|RequestOutcomeContract|CachedAnswerOutlivesEngineFailure|SetEngineEmptiesCache' ./internal/diskstore ./internal/extsort ./internal/index ./internal/server .

# Example drift gate: the examples are the Engine API's showcase, so
# they build, vet and all six run end to end (each takes well under a
# second once built). CI's examples job runs this target.
examples-smoke:
	$(GO) build ./examples/...
	$(GO) vet ./examples/...
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/streaming
	$(GO) run ./examples/newsweek
	$(GO) run ./examples/tags
	$(GO) run ./examples/refine
	$(GO) run ./examples/bursts

# Command smoke: the three one-shot commands have no tests of their
# own, so run each end to end on the demo corpus — blogscope on both
# index backends, blogstable's bursts, a saved-clusters round trip and
# its query and cluster flags (-normalized, -lmin, -k, -l, -algorithm,
# -rho, -mincluster, -raw; -normalized -algorithm dfs and -clusters
# with the corpus flag -intervals must fail),
# experiments -list — asserting exit 0 and each headline line
# (scripts/cli-smoke.sh, a few seconds once built). CI's examples job
# runs this after examples-smoke.
cli-smoke:
	sh scripts/cli-smoke.sh

# Serving-layer smoke: boot blogserved on the demo corpus, curl every
# endpoint, assert a cache hit, the 400 mapping and a clean SIGTERM
# drain (scripts/serve-smoke.sh; the admission/429 path is covered
# deterministically by the internal/server race tests). CI's examples
# job runs this after examples-smoke.
serve-smoke:
	sh scripts/serve-smoke.sh

# Sharded-serving smoke: boot two blogserved shard servers on interval
# slices of the demo corpus plus a scatter-gather coordinator fanning
# out to them, and a `-shard-count 2` coordinator over in-process shard
# servers; assert both coordinators' cross-boundary answers match an
# unsharded reference byte for byte, push an interval through the
# remote coordinator (composite generation bump + exact cache
# eviction), and drain all five processes cleanly
# (scripts/shard-smoke.sh). CI's examples job runs this after
# serve-smoke.
shard-smoke:
	sh scripts/shard-smoke.sh

# Removes what builds and runs leave behind.
clean:
	rm -rf .bench_build
