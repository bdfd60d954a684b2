package extsort

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// drain copies every record out of it: a record is only valid until
// the following Next.
func drain(t *testing.T, it *Iterator) []string {
	t.Helper()
	var out []string
	for {
		rec, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, string(rec))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return out
}

// sortThrough feeds recs to s, alternating the string and the byte
// entry point, and returns the sorted stream.
func sortThrough(t *testing.T, s *Sorter, recs []string) []string {
	t.Helper()
	for i, r := range recs {
		var err error
		if i%2 == 0 {
			err = s.Add(r)
		} else {
			err = s.AddBytes([]byte(r))
		}
		if err != nil {
			t.Fatalf("Add(%q): %v", r, err)
		}
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	return drain(t, it)
}

func sorted(recs []string) []string {
	want := slices.Clone(recs)
	slices.Sort(want)
	return want
}

func TestInMemorySort(t *testing.T) {
	got := sortThrough(t, New(1<<20), []string{"pear", "apple", "orange", "apple"})
	want := []string{"apple", "apple", "orange", "pear"}
	if !slices.Equal(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSpillingSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var recs []string
	for i := 0; i < 5000; i++ {
		recs = append(recs, fmt.Sprintf("key-%06d", rng.Intn(2000)))
	}
	s := New(256) // force many spills
	got := sortThrough(t, s, recs)
	if s.Stats().Runs == 0 {
		t.Fatal("expected spills with a 256-byte budget")
	}
	if !slices.Equal(got, sorted(recs)) {
		t.Fatalf("spilled stream is not the sorted input (got %d, want %d records)", len(got), len(recs))
	}
}

func TestEmptySort(t *testing.T) {
	got := sortThrough(t, New(1024), nil)
	if len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
}

// TestBinaryRoundTrip sorts records of every byte class (newlines,
// NULs, high bytes, the empty record, records that differ only past
// the 8-byte prefix or only in length) through forced spills and
// asserts the stream comes back complete and ordered.
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var recs []string
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		recs = append(recs, string(b))
	}
	recs = append(recs, "", "\n", "a\nb", "\x00", "\x00\x00", "plain",
		"12345678", "12345678\x00", "12345678a", "12345678b", "1234567")

	for _, budget := range []int{256, 1 << 20} {
		s := NewWithOptions(Options{MemoryBudget: budget, FanIn: 4})
		got := sortThrough(t, s, recs)
		if !slices.Equal(got, sorted(recs)) {
			t.Fatalf("budget %d: sort lost or reordered records: got %d, want %d", budget, len(got), len(recs))
		}
		if spilled := s.Stats().Runs > 0; spilled != (budget == 256) {
			t.Fatalf("budget %d: spilled = %v", budget, spilled)
		}
	}
}

// TestNextRecordValidUntilFollowingNext pins the record lifetime on
// both paths: what Next returns is intact when the caller reads it,
// i.e. the source behind it is not advanced until the following Next.
// Long single-source stretches and varying lengths make an eager
// advance overwrite the returned bytes.
func TestNextRecordValidUntilFollowingNext(t *testing.T) {
	var recs []string
	for i := 0; i < 3000; i++ {
		recs = append(recs, fmt.Sprintf("%05d-%s", i, string(make([]byte, i%17))))
	}
	for _, budget := range []int{4096, 1 << 20} {
		s := NewWithOptions(Options{MemoryBudget: budget, FanIn: 3})
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			t.Fatal(err)
		}
		var held []byte
		for i := 0; ; i++ {
			if i > 0 && string(held) != recs[i-1] {
				t.Fatalf("budget %d: record %d changed to %q before the following Next", budget, i-1, held)
			}
			rec, ok := it.Next()
			if !ok {
				if i != len(recs) {
					t.Fatalf("budget %d: stream ended after %d of %d records", budget, i, len(recs))
				}
				break
			}
			held = rec
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
	}
}

func TestSortTwiceFails(t *testing.T) {
	s := New(1024)
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("first Sort: %v", err)
	}
	it.Close()
	if _, err := s.Sort(); err == nil {
		t.Fatal("second Sort succeeded")
	}
	if err := s.Add("x"); err == nil {
		t.Fatal("Add after Sort succeeded")
	}
	if err := s.AddBytes([]byte("x")); err == nil {
		t.Fatal("AddBytes after Sort succeeded")
	}
}

func TestStatsCounting(t *testing.T) {
	s := New(8)
	for _, r := range []string{"aaaa", "bbbb", "cccc"} {
		if err := s.Add(r); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	st := s.Stats()
	if st.Records != 3 {
		t.Errorf("Records = %d, want 3", st.Records)
	}
	// The budget is charged in payload bytes: two 4-byte records fill 8.
	if st.Runs != 1 {
		t.Errorf("Runs = %d, want 1", st.Runs)
	}
	if st.SpilledBytes != 2*(1+4) {
		t.Errorf("SpilledBytes = %d, want 10", st.SpilledBytes)
	}
	it, err := s.Sort()
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	it.Close()
}

// Property: for any record multiset (any bytes), any small budget and
// any fan-in, the output is the sorted input. Runs the in-memory, the
// spilling and the pre-merging paths.
func TestSortedPermutationProperty(t *testing.T) {
	f := func(raw []string, budgetSeed, fanInSeed uint8) bool {
		recs := make([]string, len(raw))
		for i, r := range raw {
			recs[i] = r[:min(len(r), 20)]
		}
		s := NewWithOptions(Options{MemoryBudget: 1 + int(budgetSeed)%64, FanIn: 2 + int(fanInSeed)%4})
		return slices.Equal(sortThrough(t, s, recs), sorted(recs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCanceledMergeAborts spills enough runs to force pre-merge passes
// and asserts a canceled context surfaces from Sort.
func TestCanceledMergeAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewWithOptions(Options{MemoryBudget: 64, FanIn: 2, Ctx: ctx})
	for i := 0; i < 4000; i++ {
		if err := s.Add(fmt.Sprintf("record-%06d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if _, err := s.Sort(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sort on canceled ctx returned %v, want context.Canceled", err)
	}
	s.Discard()
}

func BenchmarkSpillingSort(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	recs := make([]string, 20000)
	for i := range recs {
		recs[i] = fmt.Sprintf("pair %08d %08d", rng.Intn(4000), rng.Intn(4000))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(64 << 10)
		for _, r := range recs {
			if err := s.Add(r); err != nil {
				b.Fatal(err)
			}
		}
		it, err := s.Sort()
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		it.Close()
	}
}
