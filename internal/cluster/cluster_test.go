package cluster

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	c := New(1, 0, []string{"zebra", "apple", "zebra", "mango"})
	want := []string{"apple", "mango", "zebra"}
	if !reflect.DeepEqual(c.Keywords, want) {
		t.Errorf("Keywords = %v, want %v", c.Keywords, want)
	}
	if c.ID != 1 || c.Interval != 0 || c.Size() != 3 {
		t.Errorf("metadata wrong: %+v", c)
	}
}

func TestNewDoesNotAliasInput(t *testing.T) {
	in := []string{"b", "a"}
	c := New(1, 0, in)
	in[0] = "mutated"
	if c.Keywords[0] != "a" || c.Keywords[1] != "b" {
		t.Errorf("cluster aliases caller slice: %v", c.Keywords)
	}
}

func TestContains(t *testing.T) {
	c := New(1, 0, []string{"b", "a", "c"})
	for _, w := range []string{"a", "b", "c"} {
		if !c.Contains(w) {
			t.Errorf("Contains(%q) = false", w)
		}
	}
	if c.Contains("z") || c.Contains("") {
		t.Error("Contains true for absent keyword")
	}
}

func TestString(t *testing.T) {
	c := New(3, 2, []string{"b", "a"})
	if got, want := c.String(), "c3@t2{a,b}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestAffinities(t *testing.T) {
	a := New(1, 0, []string{"w", "x", "y"})
	b := New(2, 1, []string{"x", "y", "z", "q"})
	if got := IntersectionSize(a, b); got != 2 {
		t.Errorf("IntersectionSize = %d, want 2", got)
	}
	if got, want := Jaccard(a, b), 2.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Jaccard = %g, want %g", got, want)
	}
}

func TestAffinityEdgeCases(t *testing.T) {
	empty := New(1, 0, nil)
	other := New(2, 0, []string{"x"})
	if Jaccard(empty, empty) != 0 || Jaccard(empty, other) != 0 {
		t.Error("Jaccard with empty cluster should be 0")
	}
	same := New(3, 0, []string{"x", "y"})
	if got := Jaccard(same, same); got != 1 {
		t.Errorf("Jaccard(self) = %g, want 1", got)
	}
}

// Properties: symmetry, bounds, and consistency with a map-based oracle.
func TestAffinityProperties(t *testing.T) {
	mk := func(raw []string) Cluster {
		// Constrain vocabulary so overlaps actually happen.
		var kws []string
		for _, r := range raw {
			if len(r) == 0 {
				continue
			}
			kws = append(kws, string(rune('a'+int(r[0])%12)))
		}
		return New(0, 0, kws)
	}
	f := func(ra, rb []string) bool {
		a, b := mk(ra), mk(rb)
		inter := IntersectionSize(a, b)
		// Oracle.
		set := map[string]struct{}{}
		for _, w := range a.Keywords {
			set[w] = struct{}{}
		}
		want := 0
		for _, w := range b.Keywords {
			if _, ok := set[w]; ok {
				want++
			}
		}
		if inter != want {
			return false
		}
		j, j2 := Jaccard(a, b), Jaccard(b, a)
		return j == j2 && j >= 0 && j <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSetsJSONLRoundTrip(t *testing.T) {
	sets := [][]Cluster{
		{New(0, 0, []string{"b", "a"}), New(1, 0, []string{"x"})},
		{New(2, 1, []string{"c", "d"})},
		nil, // empty interval survives the trip as empty
		{New(3, 3, []string{"z"})},
	}
	var buf bytes.Buffer
	if err := WriteSetsJSONL(&buf, sets); err != nil {
		t.Fatalf("WriteSetsJSONL: %v", err)
	}
	got, err := ReadSetsJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadSetsJSONL: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d intervals, want 4", len(got))
	}
	if len(got[0]) != 2 || len(got[1]) != 1 || len(got[2]) != 0 || len(got[3]) != 1 {
		t.Fatalf("interval sizes wrong: %v", got)
	}
	if !reflect.DeepEqual(got[0][0].Keywords, []string{"a", "b"}) {
		t.Errorf("keywords = %v, want sorted [a b]", got[0][0].Keywords)
	}
}

func TestWriteSetsJSONLDetectsMisfiledCluster(t *testing.T) {
	sets := [][]Cluster{{{ID: 0, Interval: 1, Keywords: []string{"a"}}}}
	var buf bytes.Buffer
	if err := WriteSetsJSONL(&buf, sets); err == nil {
		t.Fatal("misfiled cluster accepted")
	}
}

func TestReadSetsJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadSetsJSONL(strings.NewReader("{bad}\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSetsJSONL(strings.NewReader(`{"id":0,"interval":-1,"keywords":["a"]}` + "\n")); err == nil {
		t.Error("negative interval accepted")
	}
	got, err := ReadSetsJSONL(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Errorf("blank stream: %v, %v", got, err)
	}
}

func TestContainsOnLargeCluster(t *testing.T) {
	var kws []string
	for i := 0; i < 1000; i++ {
		kws = append(kws, string(rune('a'+i%26))+string(rune('a'+(i/26)%26))+string(rune('a'+(i/676)%26)))
	}
	c := New(1, 0, kws)
	if !sort.StringsAreSorted(c.Keywords) {
		t.Fatal("keywords not sorted")
	}
	for _, w := range c.Keywords {
		if !c.Contains(w) {
			t.Fatalf("Contains(%q) = false", w)
		}
	}
}
