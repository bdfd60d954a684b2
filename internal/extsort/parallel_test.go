package extsort

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// addRun streams recs, which must be ascending, into s as one run.
func addRun(s *Sorter, recs []string) error {
	run, err := s.NewRun()
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := run.Append([]byte(r)); err != nil {
			run.Close()
			return err
		}
	}
	return run.Close()
}

// TestAddSortedRun streams pre-sorted runs from several goroutines
// concurrently with a regular Add producer and checks the merged
// stream; under -race it is the concurrency check for NewRun.
func TestAddSortedRun(t *testing.T) {
	s := NewWithOptions(Options{MemoryBudget: 64, FanIn: 4})
	var want []string

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		batch := make([]string, 0, 50)
		for i := 0; i < 50; i++ {
			batch = append(batch, fmt.Sprintf("run%d-%04d", w, i))
		}
		want = append(want, batch...)
		wg.Add(1)
		go func(batch []string) {
			defer wg.Done()
			if err := addRun(s, batch); err != nil {
				t.Errorf("run: %v", err)
			}
		}(batch)
	}
	for i := 0; i < 100; i++ {
		rec := fmt.Sprintf("add-%04d", i%37)
		want = append(want, rec)
		if err := s.Add(rec); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	wg.Wait()

	it, err := s.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	got := drain(t, it)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("merged stream mismatch: got %d records, want %d", len(got), len(want))
	}
	if st := s.Stats(); st.Records != len(want) {
		t.Errorf("Records = %d, want %d", st.Records, len(want))
	}
}

// TestBinaryAddSortedRun sends records with newline and NUL bytes
// through the run writer, equal neighbours included.
func TestBinaryAddSortedRun(t *testing.T) {
	s := New(0)
	if err := addRun(s, []string{"a\n1", "a\n2", "a\n2", "b\x00"}); err != nil {
		t.Fatal(err)
	}
	if err := addRun(s, []string{"a\n0", "c"}); err != nil {
		t.Fatal(err)
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, it)
	want := []string{"a\n0", "a\n1", "a\n2", "a\n2", "b\x00", "c"}
	if !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestAddSortedRunRejectsUnsorted(t *testing.T) {
	s := New(1024)
	defer s.Discard()
	if err := addRun(s, []string{"b", "a"}); err == nil {
		t.Fatal("out-of-order Append accepted")
	}
	if err := addRun(s, []string{"12345678b", "12345678a"}); err == nil {
		t.Fatal("Append out of order past the prefix accepted")
	}
	if err := addRun(s, nil); err != nil {
		t.Fatalf("empty run rejected: %v", err)
	}
}

// TestParallelPreMerge has four goroutines stream small runs into one
// sorter at once, beside an Add producer that spills, so far more runs
// than the final fan-in reach the grouped pre-merge, which then runs
// over several passes.
func TestParallelPreMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewWithOptions(Options{MemoryBudget: 64, FanIn: 3})
	var want []string
	batches := make([][][]string, 4)
	for w := range batches {
		for r := 0; r < 40; r++ {
			run := make([]string, 10)
			for i := range run {
				run[i] = fmt.Sprintf("key-%05d", rng.Intn(1500))
			}
			slices.Sort(run)
			want = append(want, run...)
			batches[w] = append(batches[w], run)
		}
	}
	var wg sync.WaitGroup
	for _, runs := range batches {
		wg.Add(1)
		go func(runs [][]string) {
			defer wg.Done()
			for _, run := range runs {
				if err := addRun(s, run); err != nil {
					t.Errorf("run: %v", err)
					return
				}
			}
		}(runs)
	}
	for i := 0; i < 1000; i++ {
		rec := fmt.Sprintf("key-%05d", rng.Intn(1500))
		want = append(want, rec)
		if err := s.Add(rec); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	wg.Wait()
	if runs := s.Stats().Runs; runs <= 9 {
		t.Fatalf("expected more runs than two pre-merge passes reduce to the fan-in, got %d", runs)
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	got := drain(t, it)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("pre-merged stream is not the sorted input (got %d, want %d records)", len(got), len(want))
	}
}

// TestDiscardRemovesSpills covers the error-path cleanup: a sorter
// abandoned after spills must not leave run files behind, while a
// sorter whose iterator was taken leaves ownership with the iterator.
func TestDiscardRemovesSpills(t *testing.T) {
	// A private temp root: other packages' tests spill extsort-* dirs
	// into the shared one while this test counts them.
	t.Setenv("TMPDIR", t.TempDir())
	countDirs := func() int {
		m, err := filepath.Glob(filepath.Join(os.TempDir(), "extsort-*"))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}
	before := countDirs()
	s := New(8)
	for _, r := range []string{"aaaa", "bbbb", "cccc"} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if countDirs() != before+1 {
		t.Fatalf("expected one new temp dir after spills")
	}
	s.Discard()
	s.Discard() // idempotent
	if countDirs() != before {
		t.Fatalf("Discard left temp dirs behind")
	}
	if err := s.Add("x"); err == nil {
		t.Fatal("Add after Discard succeeded")
	}

	// After Sort, Discard must not pull files out from under the
	// iterator.
	s2 := New(8)
	for _, r := range []string{"dddd", "eeee", "ffff"} {
		if err := s2.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	it, err := s2.Sort()
	if err != nil {
		t.Fatal(err)
	}
	s2.Discard()
	got := drain(t, it)
	if len(got) != 3 {
		t.Fatalf("drained %d records, want 3", len(got))
	}
	if countDirs() != before {
		t.Fatalf("iterator Close left temp dirs behind")
	}
}

func TestAddSortedRunAfterSortFails(t *testing.T) {
	s := New(1024)
	it, err := s.Sort()
	if err != nil {
		t.Fatal(err)
	}
	it.Close()
	if _, err := s.NewRun(); err == nil {
		t.Fatal("NewRun after Sort succeeded")
	}
}
