package core

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// solveNormalized solves Problem 2 (the top-k paths of temporal length
// at least LMin with the highest stability = weight/length) with the
// BFS framework of Section 4.5: nodes are processed interval by
// interval; each node carries smallpaths (all paths of length < lmin
// ending there) and bestpaths (candidate paths of length >= lmin ending
// there, pruned with the Theorem 1 prefix rule). Every generated path
// of qualifying length is checked against the global top-k by
// stability.
//
// The Weight field of returned paths holds the stability score.
func solveNormalized(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	lmin, err := req.resolveLMin(g)
	if err != nil {
		return nil, err
	}
	r := &normRun{
		g:       g,
		k:       req.K,
		lmin:    lmin,
		suffix:  req.SuffixDominance,
		noPrune: req.DisableTheorem1Pruning,
		beam:    req.BeamWidth,
		small:   make(map[int64]map[int][]topk.Path),
		best:    make(map[int64]map[string]topk.Path),
		global:  topk.NewK(req.K),
	}
	for i := 0; i < g.NumIntervals(); i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		r.processInterval(i)
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

type normRun struct {
	g       *clustergraph.Graph
	k       int
	lmin    int
	suffix  bool
	noPrune bool
	beam    int

	// small[c][x] holds all paths of length x < lmin ending at c.
	small map[int64]map[int][]topk.Path
	// best[c] holds the candidate paths of length >= lmin ending at c,
	// keyed by node signature for de-duplication.
	best   map[int64]map[string]topk.Path
	global *topk.K
	stats  Stats
}

func (r *normRun) processInterval(i int) {
	window := 0
	lo := i - r.g.Gap() - 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < i; j++ {
		window += len(r.g.NodesAt(j))
	}
	r.stats.NodeReads += int64(window)

	for _, id := range r.g.NodesAt(i) {
		r.small[id] = make(map[int][]topk.Path)
		r.best[id] = make(map[string]topk.Path)
		for _, ph := range r.g.Parents(id) {
			r.stats.EdgeReads++
			r.extend(id, ph)
		}
		if r.suffix {
			r.dropDominatedSuffixes(id)
		}
		if r.beam > 0 {
			r.capBeam(id)
		}
		r.stats.NodeWrites++
	}
	r.evict(i)
	r.trackPeak()
}

// extend folds the parent's paths across the edge into the node's
// smallpaths/bestpaths, per the update rules of Section 4.5.
func (r *normRun) extend(id int64, ph clustergraph.Half) {
	el := ph.Length
	// The edge alone.
	r.place(id, topk.Path{Nodes: []int64{ph.Peer}}.Append(id, el, ph.Weight))
	// Extensions of the parent's smallpaths (all lengths; gap edges can
	// jump from below lmin to above it, so unlike the paper's formula —
	// written for the exact x = lmin − length(c'c) — every extension is
	// routed by its resulting length). Both parent maps are iterated in
	// sorted order: the same path signature can be regenerated with
	// weights differing in the last ulp (direct summation vs Theorem 1's
	// subtraction), and the retained-variant choice is first-write-wins,
	// so randomized map order would make even sequential runs
	// bit-nondeterministic.
	small := r.small[ph.Peer]
	lens := make([]int, 0, len(small))
	for x := range small {
		lens = append(lens, x)
	}
	sort.Ints(lens)
	for _, x := range lens {
		for _, p := range small[x] {
			r.place(id, p.Append(id, el, ph.Weight))
		}
	}
	// Extensions of the parent's bestpaths.
	best := r.best[ph.Peer]
	sigs := make([]string, 0, len(best))
	for s := range best {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		r.place(id, best[s].Append(id, el, ph.Weight))
	}
}

// place routes a newly generated path ending at id: short paths go to
// smallpaths; qualifying paths are checked against the global heap,
// pruned with Theorem 1, and retained as candidates.
func (r *normRun) place(id int64, p topk.Path) {
	if p.Length < r.lmin {
		r.small[id][p.Length] = append(r.small[id][p.Length], p)
		return
	}
	r.considerGlobal(p)
	if r.noPrune {
		r.best[id][signature(p.Nodes)] = p
		return
	}
	pruned := r.pruneTheorem1(p)
	if len(pruned.Nodes) != len(p.Nodes) {
		// The pruned remainder is itself a qualifying path that future
		// edges will extend; it was generated independently too, but
		// checking here is cheap and keeps the invariant local.
		r.considerGlobal(pruned)
	}
	r.best[id][signature(pruned.Nodes)] = pruned
}

// considerGlobal offers a qualifying path to the global top-k, ranked
// by stability.
func (r *normRun) considerGlobal(p topk.Path) {
	r.stats.HeapConsiders++
	r.global.Consider(topk.Path{Nodes: p.Nodes, Length: p.Length, Weight: p.Stability()})
}

// pruneTheorem1 repeatedly drops prefixes justified by Theorem 1: if
// π = pre·curr with length(curr) >= lmin and stability(pre) <=
// stability(curr), then curr extends at least as well as π for every
// suffix, so pre is discarded.
func (r *normRun) pruneTheorem1(p topk.Path) topk.Path {
	weights := r.cumulativeWeights(p)
	for {
		t := len(p.Nodes) - 1
		dropped := false
		for j := 1; j < t; j++ {
			currLen := r.g.Interval(p.Nodes[t]) - r.g.Interval(p.Nodes[j])
			if currLen < r.lmin {
				break // later split points only shorten curr further
			}
			preLen := r.g.Interval(p.Nodes[j]) - r.g.Interval(p.Nodes[0])
			preW := weights[j]
			currW := p.Weight - preW
			// stability(pre) <= stability(curr), cross-multiplied to
			// avoid division.
			if preW*float64(currLen) <= currW*float64(preLen) {
				p = topk.Path{Nodes: append([]int64(nil), p.Nodes[j:]...), Length: currLen, Weight: currW}
				weights = weights[j:]
				base := weights[0]
				for i := range weights {
					weights[i] -= base
				}
				dropped = true
				break
			}
		}
		if !dropped {
			return p
		}
	}
}

// cumulativeWeights returns w[j] = weight of the prefix ending at
// p.Nodes[j], recovered from the graph's edges.
func (r *normRun) cumulativeWeights(p topk.Path) []float64 {
	w := make([]float64, len(p.Nodes))
	for j := 1; j < len(p.Nodes); j++ {
		for _, h := range r.g.Children(p.Nodes[j-1]) {
			if h.Peer == p.Nodes[j] {
				w[j] = w[j-1] + h.Weight
				break
			}
		}
	}
	return w
}

// capBeam keeps only the BeamWidth highest-stability candidates at a
// node.
func (r *normRun) capBeam(id int64) {
	best := r.best[id]
	if len(best) <= r.beam {
		return
	}
	paths := make([]topk.Path, 0, len(best))
	for _, p := range best {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		si, sj := paths[i].Stability(), paths[j].Stability()
		if si != sj {
			return si > sj
		}
		return signature(paths[i].Nodes) < signature(paths[j].Nodes)
	})
	for _, p := range paths[r.beam:] {
		delete(best, signature(p.Nodes))
	}
}

// dropDominatedSuffixes removes retained paths that are suffixes of
// other retained paths (the optional, unsound-in-general rule the
// paper sketches; see Request.SuffixDominance).
func (r *normRun) dropDominatedSuffixes(id int64) {
	best := r.best[id]
	for sigA, a := range best {
		for sigB, b := range best {
			if sigA == sigB || len(b.Nodes) >= len(a.Nodes) {
				continue
			}
			if isSuffix(b.Nodes, a.Nodes) {
				delete(best, sigB)
			}
		}
	}
}

func isSuffix(short, long []int64) bool {
	off := len(long) - len(short)
	if off <= 0 {
		return false
	}
	for i := range short {
		if short[i] != long[off+i] {
			return false
		}
	}
	return true
}

// evict discards per-node state that has fallen out of the g+1 window.
func (r *normRun) evict(i int) {
	old := i - r.g.Gap() - 1
	if old < 0 {
		return
	}
	for _, id := range r.g.NodesAt(old) {
		delete(r.small, id)
		delete(r.best, id)
	}
}

func (r *normRun) trackPeak() {
	var n int64
	for _, byLen := range r.small {
		for _, ps := range byLen {
			n += int64(len(ps))
		}
	}
	for _, m := range r.best {
		n += int64(len(m))
	}
	if n > r.stats.PeakStatePaths {
		r.stats.PeakStatePaths = n
	}
}

func signature(nodes []int64) string {
	var b strings.Builder
	for i, n := range nodes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(n, 10))
	}
	return b.String()
}
