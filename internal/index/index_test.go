package index

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
)

func testCollection() *corpus.Collection {
	return &corpus.Collection{Intervals: []corpus.Interval{
		{Index: 0, Docs: []corpus.Document{
			{ID: 1, Interval: 0, Keywords: []string{"a", "b"}},
			{ID: 2, Interval: 0, Keywords: []string{"a", "c"}},
			{ID: 3, Interval: 0, Keywords: []string{"b", "c", "a"}},
		}},
		{Index: 1, Docs: []corpus.Document{
			{ID: 4, Interval: 1, Keywords: []string{"a"}},
			{ID: 5, Interval: 1, Keywords: []string{"c", "c"}}, // dup keyword in one doc
		}},
	}}
}

func TestDocFreqAndCoDocFreq(t *testing.T) {
	x, err := New(testCollection())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if x.NumIntervals() != 2 || x.NumDocs(0) != 3 || x.NumDocs(1) != 2 {
		t.Errorf("shape wrong: %d intervals, %d/%d docs", x.NumIntervals(), x.NumDocs(0), x.NumDocs(1))
	}
	// A(u) is len(Postings), A(u,v) is len(Search([u v])).
	a := func(w string, i int) int {
		p, _ := x.Postings(w, i)
		return len(p)
	}
	aa := func(u, v string, i int) int {
		ids, _ := x.Search([]string{u, v}, i)
		return len(ids)
	}
	if got := a("a", 0); got != 3 {
		t.Errorf("A(a)@0 = %d, want 3", got)
	}
	if got := a("c", 1); got != 1 {
		t.Errorf("A(c)@1 = %d, want 1 (duplicate keyword must count once)", got)
	}
	if got := a("zzz", 0); got != 0 {
		t.Errorf("A(zzz) = %d, want 0", got)
	}
	if got := aa("a", "b", 0); got != 2 {
		t.Errorf("A(a,b)@0 = %d, want 2", got)
	}
	if got := aa("a", "c", 1); got != 0 {
		t.Errorf("A(a,c)@1 = %d, want 0", got)
	}
	if got := x.NumDocs(9); got != 0 {
		t.Errorf("NumDocs out of range = %d, want 0", got)
	}
}

func TestSearch(t *testing.T) {
	x, err := New(testCollection())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := x.Search([]string{"a", "b"}, 0); !reflect.DeepEqual(got, []int64{1, 3}) {
		t.Errorf("Search(a AND b) = %v, want [1 3]", got)
	}
	if got, _ := x.Search([]string{"a", "b", "c"}, 0); !reflect.DeepEqual(got, []int64{3}) {
		t.Errorf("Search(a AND b AND c) = %v, want [3]", got)
	}
	if got, _ := x.Search([]string{"a", "zzz"}, 0); got != nil {
		t.Errorf("Search with unknown term = %v, want nil", got)
	}
	if got, _ := x.Search(nil, 0); got != nil {
		t.Errorf("empty Search = %v, want nil", got)
	}
	if got, _ := x.Search([]string{"a"}, 5); got != nil {
		t.Errorf("out-of-range Search = %v, want nil", got)
	}
}

func TestTimeSeriesAndVocabulary(t *testing.T) {
	x, err := New(testCollection())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := x.TimeSeries("a"); !reflect.DeepEqual(got, []int64{3, 1}) {
		t.Errorf("TimeSeries(a) = %v, want [3 1]", got)
	}
	if got, _ := x.TimeSeries("b"); !reflect.DeepEqual(got, []int64{2, 0}) {
		t.Errorf("TimeSeries(b) = %v, want [2 0]", got)
	}
	if got, _ := x.Vocabulary(1); !reflect.DeepEqual(got, []string{"a", "c"}) {
		t.Errorf("Vocabulary(1) = %v, want [a c]", got)
	}
	if got, _ := x.Vocabulary(7); got != nil {
		t.Error("out-of-range Vocabulary not nil")
	}
}

func TestNewRejectsBadCollections(t *testing.T) {
	misfiled := &corpus.Collection{Intervals: []corpus.Interval{
		{Index: 0, Docs: []corpus.Document{{ID: 1, Interval: 2, Keywords: []string{"a"}}}},
	}}
	if _, err := New(misfiled); err == nil {
		t.Error("misfiled document accepted")
	}
	dupID := &corpus.Collection{Intervals: []corpus.Interval{
		{Index: 0, Docs: []corpus.Document{
			{ID: 1, Interval: 0, Keywords: []string{"a"}},
			{ID: 1, Interval: 0, Keywords: []string{"a"}},
		}},
	}}
	if _, err := New(dupID); err == nil {
		t.Error("duplicate document id accepted")
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct{ a, b, want []int64 }{
		{nil, nil, nil},
		{[]int64{1}, nil, nil},
		{[]int64{1, 3, 5}, []int64{3, 5, 7}, []int64{3, 5}},
		{[]int64{1, 2}, []int64{3, 4}, nil},
		{[]int64{2}, []int64{2}, []int64{2}},
	}
	for _, c := range cases {
		got := intersect(c.a, c.b)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("intersect(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// Property: intersect agrees with a map-based oracle regardless of
// skew, covering both the merge and galloping paths.
func TestIntersectProperty(t *testing.T) {
	f := func(seedA, seedB int64, skew uint8) bool {
		rngA := rand.New(rand.NewSource(seedA))
		rngB := rand.New(rand.NewSource(seedB))
		na := rngA.Intn(8) + 1
		nb := rngB.Intn(200) + 1 // often >16x na, exercising galloping
		if skew%2 == 0 {
			na, nb = nb, na
		}
		mk := func(rng *rand.Rand, n int) []int64 {
			set := map[int64]struct{}{}
			for len(set) < n {
				set[int64(rng.Intn(500))] = struct{}{}
			}
			out := make([]int64, 0, n)
			for v := range set {
				out = append(out, v)
			}
			sortInt64s(out)
			return out
		}
		a, b := mk(rngA, na), mk(rngB, nb)
		got := intersect(a, b)
		inB := map[int64]struct{}{}
		for _, v := range b {
			inB[v] = struct{}{}
		}
		var want []int64
		for _, v := range a {
			if _, ok := inB[v]; ok {
				want = append(want, v)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func sortInt64s(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// The index's counts must agree with the co-occurrence pipeline on a
// synthetic corpus: same A(u), same A(u,v).
func TestIndexAgreesWithCooccur(t *testing.T) {
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: 5, NumIntervals: 2, BackgroundPosts: 150,
		BackgroundVocab: 120, WordsPerPost: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(col)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force counts straight from the documents.
	for i := 0; i < 2; i++ {
		freq := map[string]int64{}
		for _, d := range col.Intervals[i].Docs {
			for _, w := range d.Keywords {
				freq[w]++
			}
		}
		for w, want := range freq {
			if got, _ := x.Postings(w, i); int64(len(got)) != want {
				t.Fatalf("interval %d: A(%s) = %d, want %d", i, w, len(got), want)
			}
		}
	}
}

// BenchmarkIndexBuild measures New on the hot build path (the
// per-document dedup dominates allocations).
func BenchmarkIndexBuild(b *testing.B) {
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: 9, NumIntervals: 2, BackgroundPosts: 2000,
		BackgroundVocab: 1500, WordsPerPost: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(col); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearch(b *testing.B) {
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed: 9, NumIntervals: 1, BackgroundPosts: 5000,
		BackgroundVocab: 2000, WordsPerPost: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	x, err := New(col)
	if err != nil {
		b.Fatal(err)
	}
	vocab, _ := x.Vocabulary(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Search([]string{vocab[i%len(vocab)], vocab[(i*7)%len(vocab)]}, 0)
	}
}
