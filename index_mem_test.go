package blogclusters

import (
	"context"
	"runtime/debug"
	"testing"

	"repro/internal/raceflag"
)

// TestMemIndexWarmReadsAllocateOnlyAnswers: a warm mem session holds
// its postings once. Postings hands out the index's own row, Search
// and TimeSeries allocate only their answer, and no block cache fills
// however many queries run.
func TestMemIndexWarmReadsAllocateOnlyAnswers(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	col, err := GenerateCorpus(NewsWeekCorpus(2007, 300))
	if err != nil {
		t.Fatal(err)
	}
	eng := openTestEngine(t, col)
	idx, err := eng.Index(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The two longest rows of interval 0, so the search has an answer.
	vocab, err := idx.Vocabulary(0)
	if err != nil {
		t.Fatal(err)
	}
	var u, v string
	var nu, nv int
	for _, w := range vocab {
		ids, err := idx.Postings(w, 0)
		if err != nil {
			t.Fatal(err)
		}
		switch n := len(ids); {
		case n > nu:
			u, nu, v, nv = w, n, u, nu
		case n > nv:
			v, nv = w, n
		}
	}
	kws := []string{u, v}
	if ids, _ := idx.Search(kws, 0); len(ids) == 0 {
		t.Fatalf("Search(%v, 0) is empty: no answer to allocate", kws)
	}
	for range 100 {
		for i := range idx.NumIntervals() {
			idx.Search(kws, i)
			idx.Postings(u, i)
		}
		idx.TimeSeries(v)
	}

	// The collector off, as in the other ceilings.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if n := testing.AllocsPerRun(100, func() { idx.Postings(u, 0) }); n != 0 {
		t.Errorf("Postings: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { idx.Search(kws, 0) }); n != 1 {
		t.Errorf("Search: %v allocations per call, want 1 (the answer)", n)
	}
	if n := testing.AllocsPerRun(100, func() { idx.TimeSeries(u) }); n != 1 {
		t.Errorf("TimeSeries: %v allocations per call, want 1 (the answer)", n)
	}
	if b := eng.Stats().IndexCache.Bytes; b != 0 {
		t.Errorf("IndexCache.Bytes = %d after repeated queries, want 0", b)
	}
}
