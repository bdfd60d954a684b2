package shard

import (
	"fmt"

	blogclusters "repro"
)

// SplitCollection partitions col into n contiguous interval ranges —
// shard s owns global intervals [s*m/n, (s+1)*m/n) — re-stamping each
// interval and its documents to shard-local indices, exactly the
// sub-corpus a standalone shard server would load with -intervals.
// Every shard must receive at least one interval (n ≤ m).
func SplitCollection(col *blogclusters.Collection, n int) ([]*blogclusters.Collection, error) {
	m := len(col.Intervals)
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	if n > m {
		return nil, fmt.Errorf("shard: %d shards over %d intervals leaves an empty shard", n, m)
	}
	out := make([]*blogclusters.Collection, n)
	for s := 0; s < n; s++ {
		lo, hi := s*m/n, (s+1)*m/n
		sub := &blogclusters.Collection{Intervals: make([]blogclusters.Interval, hi-lo)}
		for gi := lo; gi < hi; gi++ {
			iv := col.Intervals[gi]
			liv := blogclusters.Interval{Index: gi - lo, Label: iv.Label}
			liv.Docs = make([]blogclusters.Document, len(iv.Docs))
			for i, d := range iv.Docs {
				d.Interval = gi - lo
				liv.Docs[i] = d
			}
			sub.Intervals[gi-lo] = liv
		}
		out[s] = sub
	}
	return out, nil
}

// SliceCollection extracts global intervals [from, to) of col as a
// standalone collection with local indices — the loader behind a shard
// server's -intervals from:to flag.
func SliceCollection(col *blogclusters.Collection, from, to int) (*blogclusters.Collection, error) {
	m := len(col.Intervals)
	if from < 0 || to > m || from >= to {
		return nil, fmt.Errorf("shard: interval slice [%d,%d) outside [0,%d)", from, to, m)
	}
	sub, err := SplitCollection(&blogclusters.Collection{Intervals: col.Intervals[from:to]}, 1)
	if err != nil {
		return nil, err
	}
	return sub[0], nil
}
