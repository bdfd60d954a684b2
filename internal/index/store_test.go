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
// LSM layer: a store opened over a prefix and grown by pushing the
// remaining intervals — with compactions forced at random points —
// must answer every read exactly like the one-shot index over the full
// corpus, on both backends.
func TestStoreDeltaEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		m := 3 + rng.Intn(4)
		col := storeCorpus(t, int64(100+trial), m, 25+rng.Intn(40))
		base := 1 + rng.Intn(m-1)
		oneShot, err := New(col)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []string{BackendMem, BackendDisk} {
			name := fmt.Sprintf("trial=%d backend=%s base=%d/%d", trial, backend, base, m)
			// CompactAfter -1 disables the policy so the test controls
			// compaction points explicitly; BlockSize 4 forces multi-block
			// postings on the disk path.
			s, err := OpenStore(ctx, prefix(col, base), backend, "", Config{BlockSize: 4, CompactAfter: -1})
			if err != nil {
				t.Fatalf("%s: OpenStore: %v", name, err)
			}
			for k := base; k < m; k++ {
				if err := s.Push(ctx, col.Intervals[k], corpus.Tokenize([]corpus.Interval{col.Intervals[k]})); err != nil {
					t.Fatalf("%s: Push(%d): %v", name, k, err)
				}
				if rng.Intn(3) == 0 {
					if err := s.Compact(ctx); err != nil {
						t.Fatalf("%s: Compact after %d: %v", name, k, err)
					}
					if got := s.NumSegments(); got != 1 {
						t.Fatalf("%s: %d segments after compaction, want 1", name, got)
					}
				}
			}
			full, err := New(col)
			if err != nil {
				t.Fatal(err)
			}
			assertReadersEqual(t, name, s, full)
			// One final fold must change nothing observable.
			if err := s.Compact(ctx); err != nil {
				t.Fatalf("%s: final Compact: %v", name, err)
			}
			assertReadersEqual(t, name+" compacted", s, oneShot)
			if err := s.Close(); err != nil {
				t.Fatalf("%s: Close: %v", name, err)
			}
		}
	}
}

// TestStoreReadsDuringPushAndCompact reads a Store from four
// goroutines while intervals are pushed and compactions fold them, on
// both backends. Every read must be a prefix of the one-shot index's
// answer: a TimeSeries is the one-shot series cut at the intervals the
// store held, and a Search of a held interval is the one-shot result
// (nil only for an interval not pushed yet). At the end the store must
// equal the one-shot index.
func TestStoreReadsDuringPushAndCompact(t *testing.T) {
	ctx := context.Background()
	const m, base = 8, 2
	col := storeCorpus(t, 16, m, 30)
	oneShot, err := New(col)
	if err != nil {
		t.Fatal(err)
	}
	vocab, _ := oneShot.Vocabulary(0)
	for _, backend := range []string{BackendMem, BackendDisk} {
		// A one-byte block cache sends every disk Search to the file, so
		// a read that outlives its segment's Close fails.
		s, err := OpenStore(ctx, prefix(col, base), backend, "", Config{BlockSize: 4, MemBudget: 1, CompactAfter: -1})
		if err != nil {
			t.Fatalf("%s: OpenStore: %v", backend, err)
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
					want, _ := oneShot.TimeSeries(w)
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
					wantIDs, _ := oneShot.Search(kws, i)
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
				if err := s.Compact(ctx); err != nil && first == nil {
					first = err
				}
			}
			compacted <- first
		}()
		for k := base; k < m; k++ {
			if err := s.Push(ctx, col.Intervals[k], corpus.Tokenize([]corpus.Interval{col.Intervals[k]})); err != nil {
				t.Fatalf("%s: Push(%d): %v", backend, k, err)
			}
			pushed <- struct{}{}
		}
		close(pushed)
		if err := <-compacted; err != nil {
			t.Fatalf("%s: Compact: %v", backend, err)
		}
		if err := s.Compact(ctx); err != nil {
			t.Fatalf("%s: final Compact: %v", backend, err)
		}
		stopReaders()
		assertReadersEqual(t, backend, s, oneShot)
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
	s, err := OpenStore(ctx, prefix(col, 2), BackendDisk, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := 2; k < 5; k++ {
		if err := s.Push(ctx, col.Intervals[k], corpus.Tokenize([]corpus.Interval{col.Intervals[k]})); err != nil {
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

// TestStoreCompactionPolicy pins the count-based policy: pushes beyond
// CompactAfter deltas report NeedsCompaction, and a negative threshold
// disables it.
func TestStoreCompactionPolicy(t *testing.T) {
	ctx := context.Background()
	col := storeCorpus(t, 12, 4, 15)
	s, err := OpenStore(ctx, prefix(col, 1), BackendMem, "", Config{CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := 1; k < 3; k++ {
		if err := s.Push(ctx, col.Intervals[k], corpus.Tokenize([]corpus.Interval{col.Intervals[k]})); err != nil {
			t.Fatal(err)
		}
		if s.NeedsCompaction() {
			t.Fatalf("NeedsCompaction true at %d deltas, threshold 2", k)
		}
	}
	if err := s.Push(ctx, col.Intervals[3], corpus.Tokenize([]corpus.Interval{col.Intervals[3]})); err != nil {
		t.Fatal(err)
	}
	if !s.NeedsCompaction() {
		t.Fatal("NeedsCompaction false at 3 deltas, threshold 2")
	}
	off, err := OpenStore(ctx, prefix(col, 1), BackendMem, "", Config{CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	for k := 1; k < 4; k++ {
		if err := off.Push(ctx, col.Intervals[k], corpus.Tokenize([]corpus.Interval{col.Intervals[k]})); err != nil {
			t.Fatal(err)
		}
	}
	if off.NeedsCompaction() {
		t.Fatal("negative CompactAfter still asks for compaction")
	}
}

// TestStorePushOutOfOrder pins the append-only contract.
func TestStorePushOutOfOrder(t *testing.T) {
	ctx := context.Background()
	col := storeCorpus(t, 13, 3, 15)
	s, err := OpenStore(ctx, prefix(col, 2), BackendMem, "", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, iv := range []corpus.Interval{col.Intervals[0], col.Intervals[1]} {
		if err := s.Push(ctx, iv, corpus.Tokenize([]corpus.Interval{iv})); err == nil {
			t.Fatalf("replaying interval %d succeeded", iv.Index)
		}
	}
	if err := s.Push(ctx, corpus.Interval{Index: 5}, corpus.Tokenize([]corpus.Interval{corpus.Interval{Index: 5}})); err == nil {
		t.Fatal("skipping ahead succeeded")
	}
	if got := s.NumIntervals(); got != 2 {
		t.Fatalf("failed pushes changed the store: %d intervals, want 2", got)
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
	s, err := OpenStore(ctx, prefix(col, 2), BackendDisk, base, Config{BlockSize: 4, FS: in})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Tear the delta build partway through its writes.
	in.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: ".delta", Err: syscall.ENOSPC})
	err = s.Push(ctx, col.Intervals[2], corpus.Tokenize([]corpus.Interval{col.Intervals[2]}))
	if !errors.Is(err, syscall.ENOSPC) {
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
	if err := s.Push(ctx, col.Intervals[2], corpus.Tokenize([]corpus.Interval{col.Intervals[2]})); err != nil {
		t.Fatalf("push after ENOSPC cleared: %v", err)
	}
	full, err := New(col)
	if err != nil {
		t.Fatal(err)
	}
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
	s, err := OpenStore(ctx, prefix(col, 2), BackendDisk, base, Config{BlockSize: 4, FS: in, CompactAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := 2; k < 4; k++ {
		if err := s.Push(ctx, col.Intervals[k], corpus.Tokenize([]corpus.Interval{col.Intervals[k]})); err != nil {
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
	full, err := New(col)
	if err != nil {
		t.Fatal(err)
	}
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
