package simjoin

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cluster"
)

func mkClusters(sets [][]string) []cluster.Cluster {
	out := make([]cluster.Cluster, len(sets))
	for i, s := range sets {
		out[i] = cluster.New(int64(i), 0, s)
	}
	return out
}

func TestJoinSmall(t *testing.T) {
	left := mkClusters([][]string{
		{"a", "b", "c"},
		{"x", "y"},
	})
	right := mkClusters([][]string{
		{"a", "b", "c", "d"}, // Jaccard with left[0] = 3/4
		{"x", "z"},           // Jaccard with left[1] = 1/3
		{"q"},                // nothing
	})
	got, err := Join(left, right, 0.5)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	want := []Pair{{Left: 0, Right: 0, Sim: 0.75}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Join = %v, want %v", got, want)
	}
	// Lower threshold admits the second pair.
	got, err = Join(left, right, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("Join(0.3) = %v, want 2 pairs", got)
	}
}

func TestJoinThetaValidation(t *testing.T) {
	cs := mkClusters([][]string{{"a"}})
	for _, theta := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := Join(cs, cs, theta); err == nil {
			t.Errorf("Join accepted theta=%g", theta)
		}
		if _, err := JoinBrute(cs, cs, theta); err == nil {
			t.Errorf("JoinBrute accepted theta=%g", theta)
		}
	}
}

func TestJoinIdenticalSets(t *testing.T) {
	cs := mkClusters([][]string{{"a", "b"}, {"a", "b"}})
	got, err := Join(cs, cs, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("Join = %v, want all 4 identical pairs", got)
	}
	for _, p := range got {
		if p.Sim != 1 {
			t.Errorf("pair %v sim = %g, want 1", p, p.Sim)
		}
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	got, err := Join(nil, nil, 0.5)
	if err != nil || len(got) != 0 {
		t.Errorf("Join(nil,nil) = %v, %v", got, err)
	}
	// Empty cluster never matches anything.
	left := mkClusters([][]string{{}})
	right := mkClusters([][]string{{"a"}})
	got, err = Join(left, right, 0.1)
	if err != nil || len(got) != 0 {
		t.Errorf("Join with empty set = %v, %v", got, err)
	}
}

func TestPrefixLen(t *testing.T) {
	cases := []struct {
		n     int
		theta float64
		want  int
	}{
		{0, 0.5, 0},
		{1, 0.5, 1},
		{4, 0.5, 3},  // 4 - 2 + 1
		{10, 0.9, 2}, // 10 - 9 + 1
		{10, 1.0, 1},
		{3, 0.1, 3},
	}
	for _, c := range cases {
		if got := prefixLen(c.n, c.theta); got != c.want {
			t.Errorf("prefixLen(%d, %g) = %d, want %d", c.n, c.theta, got, c.want)
		}
	}
}

// randClusters generates clusters over a small vocabulary so overlaps
// are common.
func randClusters(rng *rand.Rand, n, vocab, maxSize int) []cluster.Cluster {
	out := make([]cluster.Cluster, n)
	for i := range out {
		size := rng.Intn(maxSize) + 1
		kws := make([]string, 0, size)
		for len(kws) < size {
			kws = append(kws, fmt.Sprintf("w%02d", rng.Intn(vocab)))
		}
		out[i] = cluster.New(int64(i), 0, kws)
	}
	return out
}

// The prefix-filter join must agree exactly with the brute-force join
// for every threshold.
func TestJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		left := randClusters(rng, 30, 25, 8)
		right := randClusters(rng, 30, 25, 8)
		for _, theta := range []float64{0.1, 0.3, 0.5, 0.8, 1.0} {
			got, err := Join(left, right, theta)
			if err != nil {
				t.Fatal(err)
			}
			want, err := JoinBrute(left, right, theta)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d theta %g: join mismatch\n got %v\nwant %v", trial, theta, got, want)
			}
		}
	}
}

func BenchmarkJoinVsBrute(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	left := randClusters(rng, 500, 3000, 10)
	right := randClusters(rng, 500, 3000, 10)
	b.Run("prefix", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Join(left, right, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := JoinBrute(left, right, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
}
