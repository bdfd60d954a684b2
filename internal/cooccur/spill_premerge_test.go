package cooccur

import (
	"context"
	"testing"

	"repro/internal/faultfs"
)

// TestBuildSpillPreMergeEquivalence forces many tiny spilled runs, so
// the fan-in pass merges groups of them back into the spill file
// before the final merge, and checks the graph is identical to the
// pure in-memory build.
func TestBuildSpillPreMergeEquivalence(t *testing.T) {
	col := equivCorpus(t, 11, 400)
	want, err := Build(col, 0, 0, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A 4 KiB table spills every handful of documents: far more runs
	// than one merge reads at once.
	got, st, err := buildCtx(context.Background(), col, 0, 0, BuildOptions{MemBudget: 4 << 10}, faultfs.OS())
	if err != nil {
		t.Fatal(err)
	}
	if st.spills <= maxFanIn || st.fanInPasses == 0 {
		t.Fatalf("%d runs and %d fan-in passes: the budget does not force the fan-in pass", st.spills, st.fanInPasses)
	}
	requireIdenticalGraphs(t, want, got, "fan-in spill")
}
