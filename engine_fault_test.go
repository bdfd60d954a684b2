package blogclusters

import (
	"context"
	"errors"
	"reflect"
	"syscall"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/faultfs"
)

// TestFaultEngineDiskBackendRetriesTransientReads runs a whole session
// over a disk-backed index whose segment reads fail 10% of the time:
// every query must still succeed — via the retry path — and agree with
// the mem backend, with zero corrupted reads. This is the end-to-end
// version of the internal/index fault gate.
func TestFaultEngineDiskBackendRetriesTransientReads(t *testing.T) {
	col := testCorpus(t, 120)
	in := faultfs.NewInjector(nil, 1)
	// Only reads of the opened segment fault (the build reads no file;
	// the rule is scoped to the segment all the same).
	in.AddRule(faultfs.Rule{Op: faultfs.OpRead, Path: ".seg", Prob: 0.10})
	eng, err := Open(context.Background(), FromCollection(col), WithIndexOptions(IndexOptions{
		Backend: "disk",
		FS:      in,
		Retry:   diskstore.RetryPolicy{Attempts: 6, Backoff: time.Microsecond},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ref, err := Open(context.Background(), FromCollection(col))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	words := col.Vocabulary()
	if len(words) > 20 {
		words = words[:20]
	}
	ctx := context.Background()
	for _, w := range words {
		got, err := eng.TimeSeries(ctx, w)
		if err != nil {
			t.Fatalf("TimeSeries(%q) under 10%% faults: %v", w, err)
		}
		want, err := ref.TimeSeries(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TimeSeries(%q) corrupted under faults: got %v want %v", w, got, want)
		}
	}
	for i := 0; i < len(col.Intervals); i++ {
		got, err := eng.Search(ctx, words[:2], i)
		if err != nil {
			t.Fatalf("Search under faults: %v", err)
		}
		want, err := ref.Search(ctx, words[:2], i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Search interval %d corrupted under faults: got %v want %v", i, got, want)
		}
	}
	st := eng.Stats()
	if st.IndexIO.RetriedReads == 0 {
		t.Fatalf("10%% fault rate produced zero retries (injected=%d)", in.Injected())
	}
	if st.IndexIO.CorruptReads != 0 {
		t.Fatalf("transient faults misclassified as corruption %d times", st.IndexIO.CorruptReads)
	}
}

// TestFaultEngineBuildFailureNotMemoized is the memo non-poisoning
// gate: one index build dies on a full disk, and the very next query
// must rebuild and answer — the failure is returned to its caller,
// never cached against the session.
func TestFaultEngineBuildFailureNotMemoized(t *testing.T) {
	col := testCorpus(t, 80)
	in := faultfs.NewInjector(nil, 1)
	in.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: ".partial", Err: syscall.ENOSPC, MaxFires: 1})
	eng, err := Open(context.Background(), FromCollection(col), WithIndexOptions(IndexOptions{
		Backend: "disk",
		FS:      in,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	w := col.Vocabulary()[0]
	if _, err := eng.TimeSeries(ctx, w); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("first query during ENOSPC = %v, want ENOSPC", err)
	}
	// Space came back (the rule burned its one fire): the session must
	// recover on its own — no reopen, no restart.
	got, err := eng.TimeSeries(ctx, w)
	if err != nil {
		t.Fatalf("query after ENOSPC cleared: %v (failed build poisoned the memo)", err)
	}
	ref, err := Open(context.Background(), FromCollection(col))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.TimeSeries(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered session answered %v, want %v", got, want)
	}
	if b := eng.Stats().Stages["index"].Builds; b != 2 {
		t.Fatalf("index stage built %d times, want 2 (one failed, one recovered)", b)
	}
}
