package cooccur

import "testing"

// TestBuildSpillPreMergeEquivalence forces many tiny spilled runs (so
// extsort pre-merges them in groups before the final merge) and checks
// the graph is identical to the pure in-memory build.
func TestBuildSpillPreMergeEquivalence(t *testing.T) {
	col := equivCorpus(t, 11, 400)
	want, err := Build(col, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A tiny MemBudget forces a spill per handful of documents and a
	// tiny SortMemoryBudget splits each spill into many runs, pushing
	// the run count past the merge fan-in so the grouped pre-merge runs.
	got, err := Build(col, 0, 0, BuildOptions{MemBudget: 4 << 10, SortMemoryBudget: 256})
	if err != nil {
		t.Fatal(err)
	}
	requireIdenticalGraphs(t, want, got, "premerge-spill")
}
