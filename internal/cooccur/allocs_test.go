package cooccur

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/stats"
)

// Allocation ceiling, in tier-1: a spilled build encodes every table
// entry into, and merges it out of, one fixed buffer, so what it
// allocates is set by the vocabulary and a few buffers — not by the
// tens of thousands of records it spills. The ceiling is twice the
// count recorded with this test when it was set (28; 30 since the
// build reads tokens, which it makes first; 32 while A(u) was counted
// through diagonal records and the document and run scratch grew by append;
// 147 when runs went through internal/extsort) and a small fraction of
// the record count, so one allocation per record or per run file fails
// `go test`.
func TestSpilledBuildAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 56
	col := equivCorpus(t, 5, 2000)
	opts := BuildOptions{MemBudget: 64 << 10}
	var g *Graph
	build := func() {
		var err error
		if g, err = BuildCtx(context.Background(), col, 0, 0, opts); err != nil {
			t.Fatal(err)
		}
	}
	// The collector off, so no GC bookkeeping lands in the process-wide
	// malloc count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(1, build)
	// The distinct pairs, every one an edge at MinPairCount 1, outgrow
	// the table budget, so the build spilled, each of them at least
	// once. A(u) is counted from the tokens and has no record.
	records := len(g.Edges)
	t.Logf("%v allocations for at least %d spilled records", allocs, records)
	if records*pairEntryBytes <= opts.MemBudget || records < 20*ceiling {
		t.Fatalf("%d records: too few to spill, or for a ceiling of %d to tell", records, ceiling)
	}
	if allocs > ceiling {
		t.Errorf("%v allocations per spilled build of at least %d records, ceiling %d", allocs, records, ceiling)
	}
}

// TestSpilledBuildBytes is the bytes ceiling beside the object ceiling:
// an object count cannot see Edges re-copied as it grows by append, or
// a table grown from its smallest size. At a 64 KiB budget the build
// spills a few runs; at 4 KiB every key recurs in several runs, and the
// fan-in pass folds them before Edges is sized from the merge's input.
// Recorded with this test: 0.86 MB and 0.90 MB (1.00 and 1.01 MB with
// diagonal records). The ceilings sit below what the extsort route
// allocated on a warm repeat (2.04 MB and 1.56 MB), and builds must
// allocate the same. The pruned build at the cluster stage's test
// (χ²95, ρ 0.2) never counts most pairs and never holds the unpruned
// edges: recorded 0.37 MB and 0.22 MB, ceilings well below the
// unpruned route's readings. Since BuildCtx and BuildPrunedCtx
// tokenize their documents first (4 bytes per keyword occurrence and a
// word map sized for one 1 024-slot table), the four read 0.92, 0.96,
// 0.43 and 0.28 MB.
func TestSpilledBuildBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation sizes")
	}
	col := equivCorpus(t, 5, 2000)
	// TotalAlloc is process-wide: one collection finishes the earlier
	// tests' garbage, and with the collector then off no cycle's
	// bookkeeping lands between the two readings.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		budget  int
		pruned  bool
		ceiling uint64
	}{
		{64 << 10, false, 1_300_000},
		{4 << 10, false, 1_300_000},
		{64 << 10, true, 480_000},
		{4 << 10, true, 290_000},
	} {
		build := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			opts := BuildOptions{MemBudget: tc.budget}
			var err error
			if tc.pruned {
				_, err = BuildPrunedCtx(context.Background(), col, 0, 0, opts, stats.ChiSquared95, stats.DefaultRhoThreshold)
			} else {
				_, err = BuildCtx(context.Background(), col, 0, 0, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		// One build first: the process's first spill file sets up
		// runtime state a few KiB in size, once.
		build()
		// The reading is the least of five builds, and it must repeat.
		// The runtime allocates into the same process-wide count on its
		// own: a goroutine that resumes on another P after a spill's
		// system call draws its tiny objects from that P's 16-byte
		// block, and a blocked write can make the runtime start a thread
		// (its m and g, about 5 KiB). Under a loaded machine a build
		// read 16 B or 5 248 B more than the builds around it; with
		// GOMAXPROCS 1, no other P to resume on, it never did.
		reads := make([]uint64, 5)
		for i := range reads {
			reads[i] = build()
		}
		least := slices.Min(reads)
		t.Logf("budget %d, pruned %t: %d bytes per build", tc.budget, tc.pruned, least)
		repeats := 0
		for _, b := range reads {
			if b == least {
				repeats++
			}
		}
		if repeats < 2 {
			t.Errorf("budget %d: bytes differ between builds: %v", tc.budget, reads)
		}
		if least > tc.ceiling {
			t.Errorf("budget %d: %d bytes per build, ceiling %d", tc.budget, least, tc.ceiling)
		}
	}
}
