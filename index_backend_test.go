package blogclusters

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
)

// burstsIn runs the Engine's burst detector over one index reader, so
// backends can be compared below the Engine.
func burstsIn(r IndexReader, w string) ([]KeywordBurst, error) {
	counts, err := r.TimeSeries(w)
	if err != nil {
		return nil, err
	}
	return kleinbergBursts(counts, intervalTotals(r))
}

// intervalTotals reads the per-interval document totals the burst
// detector divides by.
func intervalTotals(r IndexReader) []int64 {
	totals := make([]int64, r.NumIntervals())
	for i := range totals {
		totals[i] = int64(r.NumDocs(i))
	}
	return totals
}

// TestIndexBackendsAgree drives the facade's backend switch end to
// end: both backends must serve identical primitives and bursts on the
// synthetic news week, and the disk backend's private temp segment
// must disappear on Close.
func TestIndexBackendsAgree(t *testing.T) {
	// Private temp dir, so the leak assertion below cannot trip over
	// stray segments from other processes or earlier killed runs.
	t.Setenv("TMPDIR", t.TempDir())
	col, err := GenerateCorpus(NewsWeekCorpus(2007, 120))
	if err != nil {
		t.Fatal(err)
	}
	mem, err := index.OpenStore(context.Background(), col, "mem", "", index.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	path := filepath.Join(t.TempDir(), "news.seg")
	disk, err := index.OpenStore(context.Background(), col, "disk", path, index.Config{MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	vocab, err := mem.Vocabulary(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vocab) == 0 {
		t.Fatal("empty vocabulary")
	}
	for _, w := range vocab[:min(len(vocab), 40)] {
		ms, err := mem.TimeSeries(w)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := disk.TimeSeries(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ms, ds) {
			t.Fatalf("TimeSeries(%q): mem %v disk %v", w, ms, ds)
		}
		mb, err := burstsIn(mem, w)
		if err != nil {
			t.Fatal(err)
		}
		db, err := burstsIn(disk, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(mb, db) {
			t.Fatalf("bursts(%q): mem %v disk %v", w, mb, db)
		}
	}
	ms, err := mem.Search(vocab[:2], 3)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := disk.Search(vocab[:2], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ms, ds) {
		t.Fatalf("Search: mem %v disk %v", ms, ds)
	}

	if _, err := index.OpenStore(context.Background(), col, "bogus", "", index.Config{}); err == nil {
		t.Fatal("bogus backend accepted")
	}

	// Temp-file route: the private segment must be gone after Close,
	// and Close must be idempotent (no spurious os.Remove error for the
	// already-deleted file on the second call).
	tmp, err := index.OpenStore(context.Background(), col, "disk", "", index.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "blogclusters-idx-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp segments left behind: %v", matches)
	}
}

// TestOpenIndexStoreErrors covers the error paths of the backend
// switch: unknown backend, unwritable segment path, and temp-segment
// cleanup when BuildDisk itself fails mid-build.
func TestOpenIndexStoreErrors(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	col, err := GenerateCorpus(NewsWeekCorpus(2007, 30))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := index.OpenStore(context.Background(), col, "lsm", "", index.Config{}); err == nil {
		t.Fatal("unknown backend accepted")
	}

	// Unwritable explicit path: creating <missing-dir>/x.seg.partial
	// must fail and surface the create error.
	bad := filepath.Join(t.TempDir(), "no-such-dir", "x.seg")
	if _, err := index.OpenStore(context.Background(), col, "disk", bad, index.Config{}); err == nil {
		t.Fatal("unwritable segment path accepted")
	}

	// A failing BuildDisk (negative doc id is rejected mid-stream) on
	// the temp-segment route must remove the private temp file.
	broken, err := GenerateCorpus(NewsWeekCorpus(2007, 30))
	if err != nil {
		t.Fatal(err)
	}
	broken.Intervals[0].Docs[0].ID = -7
	if _, err := index.OpenStore(context.Background(), broken, "disk", "", index.Config{}); err == nil {
		t.Fatal("negative doc id accepted by disk backend")
	}
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "blogclusters-idx-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("failed build left temp files behind: %v", matches)
	}

	// A canceled context aborts the disk build and also cleans up.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := openIndexStoreCtx(ctx, context.Background(), col, corpus.Tokenizing(col), IndexOptions{Backend: "disk"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled disk build returned %v, want context.Canceled", err)
	}
	matches, err = filepath.Glob(filepath.Join(os.TempDir(), "blogclusters-idx-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("canceled build left temp files behind: %v", matches)
	}
}
