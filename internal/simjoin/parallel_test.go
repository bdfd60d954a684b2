package simjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
)

// randSets builds deterministic random cluster sets with enough token
// overlap that joins return real matches.
func randSets(seed int64, nSets, perSet, vocab, kw int) [][]cluster.Cluster {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]cluster.Cluster, nSets)
	for s := range sets {
		cs := make([]cluster.Cluster, perSet)
		for i := range cs {
			n := 2 + rng.Intn(kw)
			words := make([]string, n)
			for j := range words {
				words[j] = fmt.Sprintf("w%03d", rng.Intn(vocab))
			}
			cs[i] = cluster.New(int64(i), s, words)
		}
		sets[s] = cs
	}
	return sets
}

// TestVocabReuseMatchesJoin: a vocabulary interned once over all sets
// and reused across JoinRecords calls returns exactly what the
// throwaway per-call Join and the quadratic reference return, and so
// does one Joiner appending every join to one buffer, each join's span
// of it left as it was written.
func TestVocabReuseMatchesJoin(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		var (
			joiner Joiner
			buf    []Pair
			spans  [][2]int
			wants  [][]Pair
		)
		sets := randSets(seed, 4, 60, 120, 8)
		v := NewVocab(sets...)
		recs := make([][]Record, len(sets))
		for i, cs := range sets {
			var err error
			if recs[i], err = v.Records(cs); err != nil {
				t.Fatalf("seed %d: Records(%d): %v", seed, i, err)
			}
		}
		for _, theta := range []float64{0.2, 0.5, 0.9} {
			for i := 0; i < len(sets); i++ {
				for j := i + 1; j < len(sets); j++ {
					want, err := JoinBrute(sets[i], sets[j], theta)
					if err != nil {
						t.Fatal(err)
					}
					oneShot, err := Join(sets[i], sets[j], theta)
					if err != nil {
						t.Fatal(err)
					}
					reused, err := v.JoinRecords(recs[i], recs[j], theta)
					if err != nil {
						t.Fatal(err)
					}
					if !pairsEqual(oneShot, want) {
						t.Fatalf("seed %d theta %g (%d,%d): Join disagrees with brute\n got %v\nwant %v",
							seed, theta, i, j, oneShot, want)
					}
					if !pairsEqual(reused, want) {
						t.Fatalf("seed %d theta %g (%d,%d): reused vocab disagrees with brute\n got %v\nwant %v",
							seed, theta, i, j, reused, want)
					}
					lo := len(buf)
					if buf, err = joiner.AppendJoin(buf, recs[i], recs[j], theta); err != nil {
						t.Fatal(err)
					}
					spans, wants = append(spans, [2]int{lo, len(buf)}), append(wants, want)
				}
			}
		}
		for k, sp := range spans {
			if got := buf[sp[0]:sp[1]]; !pairsEqual(got, wants[k]) {
				t.Fatalf("seed %d: join %d appended by the shared Joiner disagrees with brute\n got %v\nwant %v",
					seed, k, got, wants[k])
			}
		}
	}
}

// TestJoinRecordsParallelEquivalence: concurrent JoinRecords calls
// sharing one Vocab, as the cluster-graph edge tasks make them, each
// return exactly the quadratic reference's pair list.
func TestJoinRecordsParallelEquivalence(t *testing.T) {
	sets := randSets(3, 2, 300, 200, 10)
	v := NewVocab(sets...)
	lrec, err := v.Records(sets[0])
	if err != nil {
		t.Fatal(err)
	}
	rrec, err := v.Records(sets[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{0.2, 0.4, 0.7} {
		want, err := JoinBrute(sets[0], sets[1], theta)
		if err != nil {
			t.Fatal(err)
		}
		if theta <= 0.3 && len(want) == 0 {
			t.Fatalf("theta %g: no matches; workload too sparse to be a real test", theta)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := v.JoinRecords(lrec, rrec, theta)
				if err != nil {
					t.Error(err)
					return
				}
				if !pairsEqual(got, want) {
					t.Errorf("theta %g: %d pairs, want %d (or order differs)", theta, len(got), len(want))
				}
			}()
		}
		wg.Wait()
	}
}

func TestRecordsUnknownKeyword(t *testing.T) {
	known := []cluster.Cluster{cluster.New(0, 0, []string{"a", "b"})}
	v := NewVocab(known)
	if _, err := v.Records([]cluster.Cluster{cluster.New(1, 0, []string{"a", "zzz"})}); err == nil {
		t.Fatal("Records accepted a keyword the vocabulary has never seen")
	}
}

func TestJoinRecordsThetaValidation(t *testing.T) {
	v := NewVocab([]cluster.Cluster{cluster.New(0, 0, []string{"a"})})
	for _, theta := range []float64{0, -1, 1.5} {
		if _, err := v.JoinRecords(nil, nil, theta); err == nil {
			t.Errorf("JoinRecords accepted theta=%g", theta)
		}
	}
}

func pairsEqual(a, b []Pair) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
