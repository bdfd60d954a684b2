package extsort

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// Allocation ceiling, in tier-1: records live in the arena, in run
// files and in each source's one buffer, never as objects of their
// own, so what a spilled sort allocates is set by its run count (files,
// names, sources) and by a few buffer doublings, not by its record
// count. Twice the records over the same number of runs (the budget
// doubles too) must therefore cost about the same, and the ceiling of
// about twice the count recorded with this test (162) fails `go test`
// on a per-record allocation long before the benchmark shows it.
func TestSortAllocationCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n, budget, ceiling, slack = 20000, 64 << 10, 330, 30
	rng := rand.New(rand.NewSource(2))
	recs := make([][]byte, 2*n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("pair %08d %08d", rng.Intn(4000), rng.Intn(4000)))
	}
	var runs int
	sortAll := func(recs [][]byte, budget int) func() {
		return func() {
			s := New(budget)
			for _, r := range recs {
				if err := s.AddBytes(r); err != nil {
					t.Fatal(err)
				}
			}
			it, err := s.Sort()
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				got++
			}
			if err := it.Err(); err != nil || got != len(recs) {
				t.Fatalf("drained %d of %d records, err %v", got, len(recs), err)
			}
			it.Close()
			runs = s.Stats().Runs
		}
	}
	// The collector off: a GC cycle would empty the I/O buffer pools and
	// add its own bookkeeping to the process-wide malloc count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	base := testing.AllocsPerRun(1, sortAll(recs[:n], budget))
	baseRuns := runs
	doubled := testing.AllocsPerRun(1, sortAll(recs, 2*budget))
	if baseRuns < 4 || runs != baseRuns {
		t.Fatalf("runs: %d for %d records, %d for %d; want the same count, at least 4", baseRuns, n, runs, 2*n)
	}
	t.Logf("%v allocations for %d records, %v for %d, %d runs each", base, n, doubled, 2*n, runs)
	if base > ceiling {
		t.Errorf("%v allocations for a %d-record sort over %d runs, ceiling %v", base, n, baseRuns, ceiling)
	}
	if doubled > base+slack {
		t.Errorf("allocations grow with the record count: %v for %d records, %v for %d", base, n, doubled, 2*n)
	}
}
