package cooccur

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// Allocation ceiling, in tier-1: a spilled build encodes every table
// entry into, and merges it out of, one fixed buffer, so what it
// allocates is set by the vocabulary and a few buffers — not by the
// tens of thousands of records it spills. The ceiling is twice the
// count recorded with this test (32; 147 when runs went through
// internal/extsort) and a small fraction of the record count, so one
// allocation per record or per run file fails `go test`.
func TestSpilledBuildAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 64
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
	// The distinct entries (pairs and per-keyword diagonals) outgrow the
	// table budget, so the build spilled, each of them at least once.
	records := len(g.Edges) + len(g.Keywords)
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
// Recorded with this test: 1.00 MB and 1.01 MB. The ceilings sit below
// what the extsort route allocated on a warm repeat (2.04 MB and
// 1.56 MB), and two builds must allocate the same.
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
		ceiling uint64
	}{
		{64 << 10, 1_300_000},
		{4 << 10, 1_300_000},
	} {
		build := func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := BuildCtx(context.Background(), col, 0, 0, BuildOptions{MemBudget: tc.budget}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		// One build first: the process's first spill file sets up
		// runtime state a few KiB in size, once.
		build()
		first, second := build(), build()
		t.Logf("budget %d: %d bytes per build", tc.budget, first)
		if first != second {
			t.Errorf("budget %d: bytes differ between two builds: %d then %d", tc.budget, first, second)
		}
		if first > tc.ceiling {
			t.Errorf("budget %d: %d bytes per build, ceiling %d", tc.budget, first, tc.ceiling)
		}
	}
}
