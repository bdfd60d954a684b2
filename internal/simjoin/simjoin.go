// Package simjoin implements an all-pairs set-similarity join with
// prefix filtering.
//
// Section 4 of the paper notes that when the per-interval cluster sets
// are large, computing affinity between all cluster pairs is the
// classic problem of finding all string (set) pairs with similarity
// above a threshold, and that efficient solutions "can easily be
// adapted" (ref [11], Koudas–Marathe–Srivastava). This package is that
// adaptation for the Jaccard affinity: clusters whose Jaccard
// similarity is at least θ are found without examining the vast
// majority of dissimilar pairs, using the standard prefix-filtering
// principle (order tokens by global rarity; two sets with Jaccard ≥ θ
// must share a token within their short prefixes).
//
// The join works on interned records: a Vocab maps every keyword to a
// dense int32 rank once per run, records are rank-sorted id slices,
// and the inverted index over the probe prefixes is a slice-backed CSR
// layout — no string comparisons and no map lookups on the hot path.
// Callers joining many set pairs (the cluster-graph construction joins
// each interval against the next gap+1 intervals) build one Vocab for
// all sets and reuse it across JoinRecords calls; Join remains the
// one-shot two-set convenience wrapper. A Joiner keeps a join's index
// and probe arrays for the next join and appends the pairs to the
// caller's buffer; JoinRecords is a fresh Joiner's join.
package simjoin

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cluster"
)

// Pair is one join result: indices into the left and right inputs and
// the exact Jaccard similarity.
type Pair struct {
	Left, Right int
	Sim         float64
}

// Vocab is a reusable interned vocabulary: every keyword of the sets
// it was built from maps to a dense int32 rank, ordered rarest-first
// (ties broken lexicographically) so record prefixes are maximally
// selective. Build it once per run and share it read-only across
// Records and JoinRecords calls.
type Vocab struct {
	dict *cluster.Dict
	rank []int32 // dict id → global rarity rank
}

// NewVocab interns the keywords of every given cluster set and ranks
// them by global rarity. The frequency is the number of clusters
// containing the keyword, summed over all sets. The dictionary and the
// frequencies start at the largest set's keyword count, about the
// least the vocabulary can hold; sizing them for the summed count
// instead would over-allocate several times over when the sets share
// their keywords, as the intervals of a stable topic do.
func NewVocab(sets ...[]cluster.Cluster) *Vocab {
	most := 0
	for _, cs := range sets {
		n := 0
		for _, c := range cs {
			n += len(c.Keywords)
		}
		most = max(most, n)
	}
	d := cluster.NewDict(most)
	freq := make([]int64, 0, most)
	for _, cs := range sets {
		for _, c := range cs {
			for _, w := range c.Keywords {
				id := d.Intern(w)
				if int(id) == len(freq) {
					freq = append(freq, 0)
				}
				freq[id]++
			}
		}
	}
	// Rarest first; ties broken lexicographically for determinism.
	order := make([]int32, len(freq))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if freq[a] != freq[b] {
			if freq[a] < freq[b] {
				return -1
			}
			return 1
		}
		return strings.Compare(d.Word(a), d.Word(b))
	})
	rank := make([]int32, len(freq))
	for r, id := range order {
		rank[id] = int32(r)
	}
	return &Vocab{dict: d, rank: rank}
}

// Record is one cluster's keyword set as rank-sorted token ids
// (rarest token first).
type Record struct {
	Tokens []int32
}

// Records interns the clusters' keyword sets against the vocabulary.
// Every keyword must have been seen by NewVocab; an unknown keyword is
// an error (it would silently corrupt the rarity ranking). The records'
// tokens are capped spans of one array.
func (v *Vocab) Records(cs []cluster.Cluster) ([]Record, error) {
	n := 0
	for _, c := range cs {
		n += len(c.Keywords)
	}
	flat := make([]int32, n)
	recs := make([]Record, len(cs))
	for i, c := range cs {
		toks := flat[:len(c.Keywords):len(c.Keywords)]
		flat = flat[len(c.Keywords):]
		for j, w := range c.Keywords {
			id, ok := v.dict.ID(w)
			if !ok {
				return nil, fmt.Errorf("simjoin: keyword %q of cluster %d not in vocabulary", w, c.ID)
			}
			toks[j] = v.rank[id]
		}
		slices.Sort(toks)
		recs[i] = Record{Tokens: toks}
	}
	return recs, nil
}

// Join returns all pairs (l, r) with Jaccard(left[l], right[r]) >= theta.
// theta must be in (0, 1]. Results are sorted by (Left, Right).
//
// Join builds a throwaway two-set vocabulary on every call; callers
// joining the same sets against successive partners should build one
// Vocab + Records up front and call JoinRecords instead.
func Join(left, right []cluster.Cluster, theta float64) ([]Pair, error) {
	if !(theta > 0 && theta <= 1) {
		return nil, fmt.Errorf("simjoin: theta must be in (0,1], got %g", theta)
	}
	v := NewVocab(left, right)
	lrec, err := v.Records(left)
	if err != nil {
		return nil, err
	}
	rrec, err := v.Records(right)
	if err != nil {
		return nil, err
	}
	return v.JoinRecords(lrec, rrec, theta)
}

// JoinRecords joins pre-interned records: all pairs (l, r) with
// Jaccard(lrec[l], rrec[r]) >= theta, sorted by (Left, Right). Both
// record slices must come from this Vocab's Records. The Vocab is only
// read, so concurrent calls may share it.
func (v *Vocab) JoinRecords(lrec, rrec []Record, theta float64) ([]Pair, error) {
	return new(Joiner).AppendJoin(nil, lrec, rrec, theta)
}

// Joiner runs joins one after another and keeps their scratch — the
// CSR inverted index over the right side's prefixes and the probe's
// de-dup stamps — for the next, so a worker joining interval pair
// after interval pair allocates it once. The zero value is ready to
// use; a Joiner is not safe for concurrent use.
type Joiner struct {
	starts, posts, seen []int32
}

// AppendJoin appends JoinRecords(lrec, rrec, theta)'s pairs, in the
// same order, to dst and returns the extended slice.
func (j *Joiner) AppendJoin(dst []Pair, lrec, rrec []Record, theta float64) ([]Pair, error) {
	if !(theta > 0 && theta <= 1) {
		return nil, fmt.Errorf("simjoin: theta must be in (0,1], got %g", theta)
	}

	// CSR inverted index over the prefixes of the right side: token →
	// the right records indexing it, in ascending record order. The
	// index is sized by the largest token the right prefixes actually
	// use, not the whole vocabulary — with a shared per-run Vocab each
	// interval-pair join touches only its own token subset, and the
	// scratch should cost accordingly.
	maxTok := int32(-1)
	for _, r := range rrec {
		for _, tok := range r.Tokens[:prefixLen(len(r.Tokens), theta)] {
			if tok > maxTok {
				maxTok = tok
			}
		}
	}
	n := int(maxTok) + 1
	starts := resize(j.starts, n+1)
	clear(starts)
	for _, r := range rrec {
		for _, tok := range r.Tokens[:prefixLen(len(r.Tokens), theta)] {
			starts[tok+1]++
		}
	}
	for i := 0; i < n; i++ {
		starts[i+1] += starts[i]
	}
	posts := resize(j.posts, int(starts[n]))
	for ri, r := range rrec {
		for _, tok := range r.Tokens[:prefixLen(len(r.Tokens), theta)] {
			posts[starts[tok]] = int32(ri)
			starts[tok]++
		}
	}
	// Each cursor now sits at the end of its token's postings, which is
	// where the next token's postings start.
	copy(starts[1:], starts[:n])
	starts[0] = 0

	// Probe: de-dup stamps mark the right records already scored for
	// the current left record. Matches of one left record are sorted by
	// Right, and left records are visited in order, so the result is
	// (Left, Right)-sorted with no final sort.
	j.starts, j.posts = starts, posts
	out := dst
	seen := resize(j.seen, len(rrec))
	j.seen = seen
	for i := range seen {
		seen[i] = -1
	}
	for i, l := range lrec {
		from := len(out)
		for _, tok := range l.Tokens[:prefixLen(len(l.Tokens), theta)] {
			if int(tok) >= n {
				// Tokens are rank-sorted ascending; nothing past the
				// index's range can have postings.
				break
			}
			for _, rj := range posts[starts[tok]:starts[tok+1]] {
				if seen[rj] == int32(i) {
					continue
				}
				seen[rj] = int32(i)
				r := rrec[rj]
				// Size filter: Jaccard >= theta requires
				// theta*|l| <= |r| <= |l|/theta.
				ls, rs := float64(len(l.Tokens)), float64(len(r.Tokens))
				if rs < theta*ls || rs > ls/theta {
					continue
				}
				if sim := jaccardSorted(l.Tokens, r.Tokens); sim >= theta {
					if len(out) == cap(out) {
						// Double: append grows a long slice by a
						// quarter, which re-copies a worker's buffer of
						// many joins several times over.
						out = slices.Grow(out, max(len(out), 16))
					}
					out = append(out, Pair{Left: i, Right: int(rj), Sim: sim})
				}
			}
		}
		slices.SortFunc(out[from:], func(a, b Pair) int { return a.Right - b.Right })
	}
	return out, nil
}

// resize returns s at length n, on its own array when that holds n
// elements and on a new zeroed one otherwise; reused elements keep
// their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// JoinBrute is the quadratic reference join, used for verification and
// as the faster choice for small inputs.
func JoinBrute(left, right []cluster.Cluster, theta float64) ([]Pair, error) {
	if !(theta > 0 && theta <= 1) {
		return nil, fmt.Errorf("simjoin: theta must be in (0,1], got %g", theta)
	}
	var out []Pair
	for i := range left {
		for j := range right {
			if sim := cluster.Jaccard(left[i], right[j]); sim >= theta {
				out = append(out, Pair{Left: i, Right: j, Sim: sim})
			}
		}
	}
	return out, nil
}

// prefixLen is |s| − ceil(θ·|s|) + 1, the number of leading (rarest)
// tokens that must be indexed/probed so that no qualifying pair is
// missed.
func prefixLen(n int, theta float64) int {
	if n == 0 {
		return 0
	}
	p := n - int(math.Ceil(theta*float64(n))) + 1
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	return p
}

func jaccardSorted(a, b []int32) float64 {
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
