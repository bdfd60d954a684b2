// Package cluster defines keyword clusters — the per-interval output of
// the cluster-generation stage (Section 3) and the nodes of the cluster
// graph (Section 4) — together with Jaccard, the affinity that weighs
// edges between clusters of nearby intervals.
package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Cluster is a set of correlated keywords discovered in one temporal
// interval.
type Cluster struct {
	// ID is the cluster's node id in the cluster graph. IDs are unique
	// across all intervals.
	ID int64 `json:"id"`
	// Interval is the index of the temporal interval the cluster was
	// discovered in.
	Interval int `json:"interval"`
	// Keywords is the sorted, de-duplicated keyword set.
	Keywords []string `json:"keywords"`
}

// New builds a cluster, sorting and de-duplicating keywords.
func New(id int64, interval int, keywords []string) Cluster {
	kws := append([]string(nil), keywords...)
	sort.Strings(kws)
	kws = dedupSorted(kws)
	return Cluster{ID: id, Interval: interval, Keywords: kws}
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Contains reports whether the cluster includes keyword w.
func (c Cluster) Contains(w string) bool {
	i := sort.SearchStrings(c.Keywords, w)
	return i < len(c.Keywords) && c.Keywords[i] == w
}

// Size returns the number of keywords.
func (c Cluster) Size() int { return len(c.Keywords) }

// String renders the cluster compactly for logs and examples.
func (c Cluster) String() string {
	return fmt.Sprintf("c%d@t%d{%s}", c.ID, c.Interval, strings.Join(c.Keywords, ","))
}

// IntersectionSize returns |a ∩ b| for two sorted keyword sets.
func IntersectionSize(a, b Cluster) int {
	i, j, n := 0, 0, 0
	for i < len(a.Keywords) && j < len(b.Keywords) {
		switch {
		case a.Keywords[i] == b.Keywords[j]:
			n++
			i++
			j++
		case a.Keywords[i] < b.Keywords[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// Jaccard is |a∩b| / |a∪b|, the affinity the paper uses for its
// qualitative study (Section 4: "we can quantify the affinity of the
// clusters by functions measuring their overlap") and the cluster
// graph's one affinity. The graph computes it in the prefix-filter join
// (internal/simjoin), and this function is the join's reference. Its
// range is [0,1], which the path-pruning rules of Section 4.3 require.
func Jaccard(a, b Cluster) float64 {
	inter := IntersectionSize(a, b)
	union := len(a.Keywords) + len(b.Keywords) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// DefaultAffinityThreshold is θ, the minimum affinity for a cluster-graph
// edge (the paper uses θ = 0.1).
const DefaultAffinityThreshold = 0.1

// WriteSetsJSONL streams per-interval cluster sets to w, one cluster
// per line, so the cluster-generation and stable-cluster stages can run
// as separate processes over a file.
func WriteSetsJSONL(w io.Writer, sets [][]Cluster) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, cs := range sets {
		for _, c := range cs {
			if c.Interval != i {
				return fmt.Errorf("cluster: cluster %d claims interval %d but is stored under %d", c.ID, c.Interval, i)
			}
			if err := enc.Encode(c); err != nil {
				return fmt.Errorf("cluster: encode cluster %d: %w", c.ID, err)
			}
		}
	}
	return bw.Flush()
}

// ReadSetsJSONL rebuilds per-interval cluster sets from the stream
// produced by WriteSetsJSONL. Keyword sets are re-normalized (sorted,
// de-duplicated) so hand-written files behave.
func ReadSetsJSONL(r io.Reader) ([][]Cluster, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	byInterval := map[int][]Cluster{}
	maxIdx := -1
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var c Cluster
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			return nil, fmt.Errorf("cluster: line %d: %w", line, err)
		}
		if c.Interval < 0 {
			return nil, fmt.Errorf("cluster: line %d: negative interval %d", line, c.Interval)
		}
		c = New(c.ID, c.Interval, c.Keywords)
		byInterval[c.Interval] = append(byInterval[c.Interval], c)
		if c.Interval > maxIdx {
			maxIdx = c.Interval
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cluster: scan: %w", err)
	}
	sets := make([][]Cluster, maxIdx+1)
	for i := 0; i <= maxIdx; i++ {
		sets[i] = byInterval[i]
	}
	return sets, nil
}
