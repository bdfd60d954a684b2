package blogclusters

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/raceflag"
)

// TestIntervalBuilderReuseMatchesFresh holds one intervalBuilder, the
// scratch a worker of the interval pool keeps, to a fresh build at every
// step of three orders: intervals ascending, descending, and descending
// then ascending. Each order leaves the builder's arrays at other sizes
// and values than the next interval needs, so any state that leaks from
// one build into the next shows as a difference.
func TestIntervalBuilderReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	c := endToEndCorpus(t)
	m := len(c.Intervals)
	toks := make([]*corpus.Tokens, m)
	for i := range toks {
		toks[i] = corpus.Tokenize(c.Intervals[i : i+1])
	}
	var ascending, descending []int
	for i := range m {
		ascending = append(ascending, i)
		descending = append(descending, m-1-i)
	}
	for _, order := range []struct {
		name      string
		intervals []int
	}{
		{"ascending", ascending},
		{"descending", descending},
		{"descending then ascending", append(slices.Clone(descending), ascending...)},
	} {
		var b intervalBuilder
		clusters := 0
		for _, i := range order.intervals {
			want, err := intervalClustersCtx(ctx, toks[i], i, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.clusters(ctx, toks[i], i, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: interval %d: reused builder gives %v, fresh %v", order.name, i, got, want)
			}
			clusters += len(got)
		}
		if clusters == 0 {
			t.Fatalf("%s: no clusters; corpus too sparse to be a real test", order.name)
		}
	}
}

// TestIntervalBuildBytesWarm is the bytes ceiling of the interval pool's
// worker scratch: once an intervalBuilder has built an interval, a
// second build of it reuses every array the first one allocated (A(u),
// bound ratios, the row pass's arrays, G′'s arrays, the bicc graph and
// the decomposer's arrays) and allocates what it returns — the clusters
// and their keyword array — and a few small headers. The ceiling is
// twice the bytes recorded with this test (9 184 warm, against 131 664
// for the cold first build, when a pair table did the counting): the
// row pass's arrays alone, or G′'s edges, allocated per build again
// would cross it.
func TestIntervalBuildBytesWarm(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const ceiling = 18_400
	ctx := context.Background()
	c := endToEndCorpus(t)
	tk := corpus.Tokenize(c.Intervals[1:2])
	var b intervalBuilder
	build := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cs, err := b.clusters(ctx, tk, 1, ClusterOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) == 0 {
			t.Fatal("no clusters; interval too sparse to be a real test")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// TotalAlloc is process-wide: one collection finishes the earlier
	// tests' garbage, and with the collector then off no cycle's
	// bookkeeping lands between the two readings.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cold := build()
	// The reading is the least of three warm builds.
	warm := slices.Min([]uint64{build(), build(), build()})
	t.Logf("interval build: %d bytes cold, %d bytes warm", cold, warm)
	if warm > ceiling {
		t.Errorf("warm interval build allocated %d bytes, ceiling %d (cold build %d)", warm, ceiling, cold)
	}
}
