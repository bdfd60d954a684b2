package index

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/diskstore"
	"repro/internal/faultfs"
)

func faultCorpus(t *testing.T, seed int64, posts int) *corpus.Collection {
	t.Helper()
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: seed, NumIntervals: 3, BackgroundPosts: posts, BackgroundVocab: 14, WordsPerPost: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// TestFaultDiskIndexRetriesTransientReads is the headline robustness
// gate: with a 10% injected EIO rate on every segment read, queries
// must still succeed — via retry — and return exactly the reference
// results, with zero corrupted reads. Wrong-but-plausible answers are
// the failure mode this guards against; the CRC layer plus the
// retry/corrupt split makes them structurally impossible.
func TestFaultDiskIndexRetriesTransientReads(t *testing.T) {
	col := faultCorpus(t, 41, 60)
	x, err := New(col)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	if err := BuildDisk(col, path, Config{BlockSize: 4}); err != nil {
		t.Fatal(err)
	}
	in := faultfs.NewInjector(nil, 1)
	in.AddRule(faultfs.Rule{Op: faultfs.OpRead, Prob: 0.10})
	d, err := OpenDisk(path, Config{
		FS:    in,
		Retry: diskstore.RetryPolicy{Attempts: 6, Backoff: time.Microsecond},
		Ctx:   context.Background(),
	})
	if err != nil {
		t.Fatalf("open under 10%% fault rate failed: %v", err)
	}
	defer d.Close()
	for i := 0; i < x.NumIntervals(); i++ {
		vocab, _ := x.Vocabulary(i)
		for _, w := range vocab {
			got, err := d.Postings(w, i)
			if err != nil {
				t.Fatalf("Postings(%q, %d) under faults: %v", w, i, err)
			}
			if want, _ := x.Postings(w, i); !reflect.DeepEqual(got, want) {
				t.Fatalf("Postings(%q, %d) corrupted under faults: got %v want %v", w, i, got, want)
			}
		}
		if len(vocab) >= 2 {
			got, err := d.Search(vocab[:2], i)
			if err != nil {
				t.Fatalf("Search under faults: %v", err)
			}
			if want, _ := x.Search(vocab[:2], i); !reflect.DeepEqual(got, want) {
				t.Fatalf("Search corrupted under faults: got %v want %v", got, want)
			}
		}
	}
	st := d.Stats()
	if st.RetriedReads == 0 {
		t.Fatalf("10%% fault rate produced zero retries (injected=%d)", in.Injected())
	}
	if st.CorruptReads != 0 {
		t.Fatalf("transient faults were misclassified as corruption %d times", st.CorruptReads)
	}
}

// TestFaultDiskIndexRetryExhaustion pins the other side: a fault that
// never clears surfaces as ErrTransient (not a silent wrong answer,
// not ErrCorrupt) once the retry budget runs out.
func TestFaultDiskIndexRetryExhaustion(t *testing.T) {
	col := faultCorpus(t, 42, 30)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	if err := BuildDisk(col, path, Config{BlockSize: 4}); err != nil {
		t.Fatal(err)
	}
	in := faultfs.NewInjector(nil, 1)
	d, err := OpenDisk(path, Config{
		FS:    in,
		Retry: diskstore.RetryPolicy{Attempts: 3, Backoff: time.Microsecond},
		Ctx:   context.Background(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	in.AddRule(faultfs.Rule{Op: faultfs.OpRead}) // every read fails, forever
	w := col.Vocabulary()[0]
	_, err = d.Postings(w, 0)
	if !errors.Is(err, diskstore.ErrTransient) {
		t.Fatalf("exhausted retries = %v, want ErrTransient in chain", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("persistent EIO misreported as corruption: %v", err)
	}
	if st := d.Stats(); st.RetriedReads != 2 {
		t.Fatalf("RetriedReads = %d, want 2 (three attempts)", st.RetriedReads)
	}
}

// TestFaultBuildDiskENOSPCRemovesPartial proves a build that dies on a
// full disk leaves no .partial segment behind, and that the same path
// builds cleanly once space returns.
func TestFaultBuildDiskENOSPCRemovesPartial(t *testing.T) {
	col := faultCorpus(t, 43, 40)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	in := faultfs.NewInjector(nil, 1)
	in.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: ".partial", Err: syscall.ENOSPC})
	err := BuildDisk(col, path, Config{BlockSize: 4, FS: in})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("build under ENOSPC = %v, want ENOSPC", err)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("failed build left files behind: %v", leftovers)
	}
	// Space comes back: the same injector (faults off) must build a
	// segment that opens and answers.
	in.SetEnabled(false)
	if err := BuildDisk(col, path, Config{BlockSize: 4, FS: in}); err != nil {
		t.Fatalf("rebuild after ENOSPC cleared: %v", err)
	}
	d, err := OpenDisk(path, Config{FS: in})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
}

// cancelOnCreateFS cancels the build's context as soon as the
// .partial segment file is created, so cancellation lands mid-write.
type cancelOnCreateFS struct {
	faultfs.FS
	cancel context.CancelFunc
	match  string
}

func (c *cancelOnCreateFS) Create(name string) (faultfs.File, error) {
	f, err := c.FS.Create(name)
	if err == nil && strings.Contains(name, c.match) {
		c.cancel()
	}
	return f, err
}

// TestFaultBuildDiskCancellationRemovesPartial proves an abandoned
// build (context cancelled while the segment is being written) removes
// its .partial file on the way out.
func TestFaultBuildDiskCancellationRemovesPartial(t *testing.T) {
	col := faultCorpus(t, 44, 2000)
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfs := &cancelOnCreateFS{FS: faultfs.OS(), cancel: cancel, match: ".partial"}
	err := BuildDiskCtx(ctx, col, path, Config{BlockSize: 4, FS: cfs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(path + ".partial"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf(".partial survives a cancelled build (stat err: %v)", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("cancelled build produced a segment (stat err: %v)", err)
	}
}
