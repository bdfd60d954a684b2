package cooccur

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// Allocation ceiling, in tier-1: a spilled build moves every table
// entry through internal/extsort as a 16-byte record written from, and
// parsed into, fixed buffers, so what it allocates is set by the
// vocabulary, the spill count and a few slice doublings — not by the
// tens of thousands of records it spills. The ceiling is about twice
// the count recorded with this test (147) and a small fraction of the
// record count, so one allocation per record fails `go test`.
func TestSpilledBuildAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const ceiling = 330
	col := equivCorpus(t, 5, 2000)
	opts := BuildOptions{MemBudget: 64 << 10}
	var g *Graph
	build := func() {
		var err error
		if g, err = BuildCtx(context.Background(), col, 0, 0, opts); err != nil {
			t.Fatal(err)
		}
	}
	// The collector off: a GC cycle would empty extsort's I/O buffer
	// pools and add its own bookkeeping to the process-wide malloc count.
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
