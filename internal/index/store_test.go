package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"repro/internal/corpus"
	"repro/internal/faultfs"
)

// storeCorpus generates an m-interval collection for store tests.
func storeCorpus(t *testing.T, seed int64, m, posts int) *corpus.Collection {
	t.Helper()
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: seed, NumIntervals: m, BackgroundPosts: posts, BackgroundVocab: 30, WordsPerPost: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// prefix returns the collection truncated to its first k intervals.
func prefix(col *corpus.Collection, k int) *corpus.Collection {
	return &corpus.Collection{Intervals: col.Intervals[:k:k]}
}

// diskStore opens a disk Store over col at path ("" for a private
// temporary directory).
func diskStore(t *testing.T, col *corpus.Collection, path string, cfg Config) *Store {
	t.Helper()
	s, err := OpenStore(context.Background(), col, BackendDisk, path, cfg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s.(*Store)
}

// assertReadersEqual compares every read the Reader interface offers:
// per-interval vocabularies, postings and doc counts, plus
// whole-timeline series and conjunctive search.
func assertReadersEqual(t *testing.T, name string, got, want Reader) {
	t.Helper()
	if g, w := got.NumIntervals(), want.NumIntervals(); g != w {
		t.Fatalf("%s: NumIntervals = %d, want %d", name, g, w)
	}
	for i := 0; i < want.NumIntervals(); i++ {
		if g, w := got.NumDocs(i), want.NumDocs(i); g != w {
			t.Fatalf("%s: NumDocs(%d) = %d, want %d", name, i, g, w)
		}
		gv, err := got.Vocabulary(i)
		if err != nil {
			t.Fatal(err)
		}
		wv, err := want.Vocabulary(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gv, wv) {
			t.Fatalf("%s: Vocabulary(%d) = %v, want %v", name, i, gv, wv)
		}
		for _, w := range wv {
			gp, err := got.Postings(w, i)
			if err != nil {
				t.Fatal(err)
			}
			wp, err := want.Postings(w, i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gp, wp) {
				t.Fatalf("%s: Postings(%q, %d) = %v, want %v", name, w, i, gp, wp)
			}
		}
		if len(wv) >= 2 {
			gs, err := got.Search(wv[:2], i)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := want.Search(wv[:2], i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gs, ws) {
				t.Fatalf("%s: Search(%v, %d) = %v, want %v", name, wv[:2], i, gs, ws)
			}
		}
	}
	if want.NumIntervals() > 0 {
		wv, err := want.Vocabulary(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wv {
			gts, err := got.TimeSeries(w)
			if err != nil {
				t.Fatal(err)
			}
			wts, err := want.TimeSeries(w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gts, wts) {
				t.Fatalf("%s: TimeSeries(%q) = %v, want %v", name, w, gts, wts)
			}
		}
	}
}

// TestStoreDeltaEquivalence is the randomized acceptance test for the
// append path: an index opened over a prefix and grown by pushing the
// remaining intervals must answer every read exactly like the
// reference index over the full corpus, on both backends; the disk
// Store also compacts at random points.
func TestStoreDeltaEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		m := 3 + rng.Intn(4)
		col := storeCorpus(t, int64(100+trial), m, 25+rng.Intn(40))
		base := 1 + rng.Intn(m-1)
		ref := refIndexOf(col)
		for _, backend := range []string{BackendMem, BackendDisk} {
			name := fmt.Sprintf("trial=%d backend=%s base=%d/%d", trial, backend, base, m)
			// CompactAfter -1 disables the policy so the test controls
			// compaction points explicitly; BlockSize 4 forces multi-block
			// postings on the disk path.
			s, err := OpenStore(ctx, prefix(col, base), backend, "", Config{BlockSize: 4, CompactAfter: -1})
			if err != nil {
				t.Fatalf("%s: OpenStore: %v", name, err)
			}
			// A mem index has no segments to fold: store is nil.
			store, _ := s.(*Store)
			for k := base; k < m; k++ {
				if err := s.Push(ctx, k, corpus.Tokenize(col.Intervals[k:k+1])); err != nil {
					t.Fatalf("%s: Push(%d): %v", name, k, err)
				}
				if rng.Intn(3) == 0 && store != nil {
					if err := store.Compact(ctx); err != nil {
						t.Fatalf("%s: Compact after %d: %v", name, k, err)
					}
					if got := store.NumSegments(); got != 1 {
						t.Fatalf("%s: %d segments after compaction, want 1", name, got)
					}
				}
			}
			assertReadersEqual(t, name, s, ref)
			if store != nil {
				// One final fold must change nothing observable.
				if err := store.Compact(ctx); err != nil {
					t.Fatalf("%s: final Compact: %v", name, err)
				}
				assertReadersEqual(t, name+" compacted", s, ref)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
		}
	}
}

// TestStoreReadsDuringPushAndCompact reads an index from four
// goroutines while intervals are pushed, on both backends: a MemIndex
// taking pushes, and a disk Store whose compactions also fold the
// pushed segments. Every read must be a prefix of the reference
// index's answer: a TimeSeries is the reference series cut at the
// intervals the index held, and a Search of a held interval is the
// reference result (nil only for an interval not pushed yet). At the
// end the index must equal the reference.
func TestStoreReadsDuringPushAndCompact(t *testing.T) {
	ctx := context.Background()
	const m, base = 8, 2
	col := storeCorpus(t, 16, m, 30)
	ref := refIndexOf(col)
	vocab, _ := ref.Vocabulary(0)
	for _, backend := range []string{BackendMem, BackendDisk} {
		// A one-byte block cache sends every disk Search to the
		// segment's file, so a read that outlives its segment's Close
		// fails.
		s, err := OpenStore(ctx, prefix(col, base), backend, "", Config{BlockSize: 4, MemBudget: 1, CompactAfter: -1})
		if err != nil {
			t.Fatalf("%s: OpenStore: %v", backend, err)
		}
		// Only the disk Store compacts; a mem index just takes pushes.
		compact := func() error { return nil }
		if store, ok := s.(*Store); ok {
			compact = func() error { return store.Compact(ctx) }
		}
		var (
			readers sync.WaitGroup
			done    = make(chan struct{})
		)
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(seed int64) {
				defer readers.Done()
				rng := rand.New(rand.NewSource(seed))
				for n := 0; ; n++ {
					select {
					case <-done:
						if n > 0 {
							return
						}
					default:
					}
					w := vocab[rng.Intn(len(vocab))]
					held := s.NumIntervals()
					ts, err := s.TimeSeries(w)
					if err != nil {
						t.Errorf("%s: TimeSeries(%q): %v", backend, w, err)
						return
					}
					want, _ := ref.TimeSeries(w)
					if len(ts) < held || !reflect.DeepEqual(ts, want[:len(ts)]) {
						t.Errorf("%s: TimeSeries(%q) = %v, want a prefix of %v at least %d long", backend, w, ts, want, held)
						return
					}
					kws := []string{w, vocab[rng.Intn(len(vocab))]}
					i := rng.Intn(m)
					held = s.NumIntervals()
					got, err := s.Search(kws, i)
					if err != nil {
						t.Errorf("%s: Search(%v, %d): %v", backend, kws, i, err)
						return
					}
					wantIDs, _ := ref.Search(kws, i)
					if !reflect.DeepEqual(got, wantIDs) && (got != nil || i < held) {
						t.Errorf("%s: Search(%v, %d) = %v with %d intervals held, want %v", backend, kws, i, got, held, wantIDs)
						return
					}
				}
			}(int64(r))
		}
		stopReaders := sync.OnceFunc(func() { close(done); readers.Wait() })
		defer stopReaders()
		pushed := make(chan struct{}, m-base)
		compacted := make(chan error, 1)
		go func() {
			var first error
			for range pushed {
				if err := compact(); err != nil && first == nil {
					first = err
				}
			}
			compacted <- first
		}()
		for k := base; k < m; k++ {
			if err := s.Push(ctx, k, corpus.Tokenize(col.Intervals[k:k+1])); err != nil {
				t.Fatalf("%s: Push(%d): %v", backend, k, err)
			}
			pushed <- struct{}{}
		}
		close(pushed)
		if err := <-compacted; err != nil {
			t.Fatalf("%s: Compact: %v", backend, err)
		}
		if err := compact(); err != nil {
			t.Fatalf("%s: final Compact: %v", backend, err)
		}
		stopReaders()
		assertReadersEqual(t, backend, s, ref)
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", backend, err)
		}
	}
}

// TestStoreCompactionByteEquality pins the strongest disk-path
// guarantee: compacting base+deltas produces a segment file
// byte-identical to BuildDisk over the equivalent one-shot corpus, so
// every downstream tool (checksums, backups, the open path) is
// oblivious to how the segment was produced.
func TestStoreCompactionByteEquality(t *testing.T) {
	ctx := context.Background()
	col := storeCorpus(t, 11, 5, 40)
	dir := t.TempDir()
	cfg := Config{BlockSize: 4, CompactAfter: -1}

	want := filepath.Join(dir, "oneshot.seg")
	if err := BuildDisk(col, want, cfg); err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}

	base := filepath.Join(dir, "grown.seg")
	s := diskStore(t, prefix(col, 2), base, cfg)
	defer s.Close()
	for k := 2; k < 5; k++ {
		if err := s.Push(ctx, k, corpus.Tokenize(col.Intervals[k:k+1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBytes, wantBytes) {
		t.Fatalf("compacted segment differs from one-shot build (%d vs %d bytes)", len(gotBytes), len(wantBytes))
	}
	// Delta files are gone after the fold; only the two .seg files
	// remain.
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("leftover files after compaction: %v", files)
	}
}

// TestStoreCompactionPolicy pins the disk Store's count-based policy:
// pushes beyond CompactAfter deltas report NeedsCompaction, and a
// negative threshold disables it.
func TestStoreCompactionPolicy(t *testing.T) {
	ctx := context.Background()
	col := storeCorpus(t, 12, 4, 15)
	s := diskStore(t, prefix(col, 1), "", Config{CompactAfter: 2})
	defer s.Close()
	for k := 1; k < 3; k++ {
		if err := s.Push(ctx, k, corpus.Tokenize(col.Intervals[k:k+1])); err != nil {
			t.Fatal(err)
		}
		if s.NeedsCompaction() {
			t.Fatalf("NeedsCompaction true at %d deltas, threshold 2", k)
		}
	}
	if err := s.Push(ctx, 3, corpus.Tokenize(col.Intervals[3:4])); err != nil {
		t.Fatal(err)
	}
	if !s.NeedsCompaction() {
		t.Fatal("NeedsCompaction false at 3 deltas, threshold 2")
	}
	off := diskStore(t, prefix(col, 1), "", Config{CompactAfter: -1})
	defer off.Close()
	for k := 1; k < 4; k++ {
		if err := off.Push(ctx, k, corpus.Tokenize(col.Intervals[k:k+1])); err != nil {
			t.Fatal(err)
		}
	}
	if off.NeedsCompaction() {
		t.Fatal("negative CompactAfter still asks for compaction")
	}
}

// TestStorePushOutOfOrder pins the append-only contract on both
// backends.
func TestStorePushOutOfOrder(t *testing.T) {
	ctx := context.Background()
	col := storeCorpus(t, 13, 3, 15)
	for _, backend := range []string{BackendMem, BackendDisk} {
		s, err := OpenStore(ctx, prefix(col, 2), backend, "", Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, iv := range []corpus.Interval{col.Intervals[0], col.Intervals[1]} {
			if err := s.Push(ctx, iv.Index, corpus.Tokenize([]corpus.Interval{iv})); err == nil {
				t.Fatalf("%s: replaying interval %d succeeded", backend, iv.Index)
			}
		}
		if err := s.Push(ctx, 5, corpus.Tokenize([]corpus.Interval{{Index: 5}})); err == nil {
			t.Fatalf("%s: skipping ahead succeeded", backend)
		}
		if got := s.NumIntervals(); got != 2 {
			t.Fatalf("%s: failed pushes changed the store: %d intervals, want 2", backend, got)
		}
	}
}

// TestFaultStorePushENOSPC proves a delta build that dies on a full
// disk (the write is torn: a prefix lands, then ENOSPC) leaves the
// store exactly as it was — same intervals, same segments, no .partial
// or orphaned delta files — and that the same push succeeds once space
// returns.
func TestFaultStorePushENOSPC(t *testing.T) {
	ctx := context.Background()
	col := storeCorpus(t, 14, 3, 30)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.seg")
	in := faultfs.NewInjector(nil, 1)
	s := diskStore(t, prefix(col, 2), base, Config{BlockSize: 4, FS: in})
	defer s.Close()

	// Tear the delta build partway through its writes.
	in.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: ".delta", Err: syscall.ENOSPC})
	if err := s.Push(ctx, 2, corpus.Tokenize(col.Intervals[2:3])); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("push under ENOSPC = %v, want ENOSPC", err)
	}
	if got := s.NumIntervals(); got != 2 {
		t.Fatalf("failed push changed interval count to %d", got)
	}
	if got := s.NumSegments(); got != 1 {
		t.Fatalf("failed push changed segment count to %d", got)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || !strings.HasSuffix(files[0], "base.seg") {
		t.Fatalf("failed push left files behind: %v", files)
	}

	// Space returns: the identical push must now land and serve.
	in.SetEnabled(false)
	if err := s.Push(ctx, 2, corpus.Tokenize(col.Intervals[2:3])); err != nil {
		t.Fatalf("push after ENOSPC cleared: %v", err)
	}
	full := refIndexOf(col)
	assertReadersEqual(t, "post-recovery", s, full)
}

// TestFaultStoreCompactionFailure proves a compaction that dies
// mid-write (torn write into the .partial fold target) leaves the
// store serving exactly as before from its existing segments, with the
// .partial removed; and that stray .partial residue from a crashed
// process is inert — the store ignores it and the next fold replaces
// it.
func TestFaultStoreCompactionFailure(t *testing.T) {
	ctx := context.Background()
	col := storeCorpus(t, 15, 4, 30)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.seg")
	in := faultfs.NewInjector(nil, 1)
	s := diskStore(t, prefix(col, 2), base, Config{BlockSize: 4, FS: in, CompactAfter: -1})
	defer s.Close()
	for k := 2; k < 4; k++ {
		if err := s.Push(ctx, k, corpus.Tokenize(col.Intervals[k:k+1])); err != nil {
			t.Fatal(err)
		}
	}

	// Simulate a previous process that crashed mid-compaction: its
	// half-written fold target is lying around.
	stray := base + ".compact.partial"
	if err := os.WriteFile(stray, []byte("torn mid-compaction"), 0o644); err != nil {
		t.Fatal(err)
	}

	in.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: ".compact.partial", Err: syscall.ENOSPC})
	if err := s.Compact(ctx); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("compact under ENOSPC = %v, want ENOSPC", err)
	}
	if got := s.NumSegments(); got != 3 {
		t.Fatalf("failed compaction changed segment count to %d, want 3", got)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf(".compact.partial survives a failed fold (stat err: %v)", err)
	}
	full := refIndexOf(col)
	assertReadersEqual(t, "after failed compaction", s, full)

	// The retry folds cleanly.
	in.SetEnabled(false)
	if err := s.Compact(ctx); err != nil {
		t.Fatalf("compact after fault cleared: %v", err)
	}
	if got := s.NumSegments(); got != 1 {
		t.Fatalf("%d segments after recovery fold, want 1", got)
	}
	assertReadersEqual(t, "after recovery fold", s, full)
}
