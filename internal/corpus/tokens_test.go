package corpus

import (
	"reflect"
	"slices"
	"testing"
)

// TestTokenize pins the token form: ranks follow bytewise word order,
// a keyword a document repeats is kept twice, Off splits the documents
// across intervals, DocIDs lists their ids in order, and a Tokenizer reused across runs (a smaller run
// after a larger one, then an empty one) gives what a fresh one gives.
func TestTokenize(t *testing.T) {
	ivs := []Interval{
		{Index: 0, Docs: []Document{
			{ID: 1, Keywords: []string{"zeta", "b", "über"}},
			{ID: 2, Keywords: []string{"b", "ab", "b"}},
		}},
		{Index: 1, Docs: []Document{
			{ID: 3},
			{ID: 4, Keywords: []string{"a", "zeta"}},
		}},
	}
	want := &Tokens{
		Words:  []string{"a", "ab", "b", "zeta", "über"},
		IDs:    []int32{3, 2, 4, 2, 1, 2, 0, 3},
		Off:    []int32{0, 3, 6, 6, 8},
		DocIDs: []int64{1, 2, 3, 4},
	}
	var tz Tokenizer
	for _, run := range []struct {
		name string
		ivs  []Interval
	}{{"two intervals", ivs}, {"one interval", ivs[1:]}, {"no documents", nil}, {"again", ivs}} {
		got := tz.Tokenize(run.ivs)
		if fresh := Tokenize(run.ivs); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s: reused tokenizer gave %+v, a fresh one %+v", run.name, got, fresh)
		}
		if got.NumDocs() != len(got.Off)-1 || !slices.IsSorted(got.Words) {
			t.Fatalf("%s: malformed tokens %+v", run.name, got)
		}
		for d := range got.NumDocs() {
			var kws []string
			for _, id := range got.Doc(d) {
				kws = append(kws, got.Words[id])
			}
			var doc []string
			n := d
			for _, iv := range run.ivs {
				if n < len(iv.Docs) {
					doc = iv.Docs[n].Keywords
					break
				}
				n -= len(iv.Docs)
			}
			if !slices.Equal(kws, doc) {
				t.Fatalf("%s: document %d reads %v, want %v", run.name, d, kws, doc)
			}
		}
		if run.name == "two intervals" && !reflect.DeepEqual(got, want) {
			t.Fatalf("tokens %+v, want %+v", got, want)
		}
	}
}

// TestTokenizeInterval: Interval tokenizes one interval of a
// collection as Tokenize does, and rejects an interval holding a
// document that claims another, naming the first such document.
func TestTokenizeInterval(t *testing.T) {
	c := &Collection{Intervals: []Interval{
		{Index: 0, Docs: []Document{{ID: 1, Interval: 0, Keywords: []string{"a"}}}},
		{Index: 1, Docs: []Document{{ID: 2, Interval: 1}, {ID: 3, Interval: 0}, {ID: 4, Interval: 2}}},
	}}
	var tz Tokenizer
	got, err := tz.Interval(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := Tokenize(c.Intervals[:1]); !reflect.DeepEqual(got, want) {
		t.Fatalf("Interval(c, 0) = %+v, want %+v", got, want)
	}
	if _, err := tz.Interval(c, 1); err == nil || err.Error() != "document 3 claims interval 0 but lives in 1" {
		t.Fatalf("Interval(c, 1) error %v", err)
	}
}
