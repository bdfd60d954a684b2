package core

import (
	"cmp"
	"context"
	"slices"

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
	r := newNormRun(g, req, lmin)
	for i := 0; i < g.NumIntervals(); i++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		r.processInterval(i)
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

// normRun carries the state of one normalized execution. Paths are slab
// chains that run last node → first. A node's state is fixed once its
// interval has been processed, so it is kept as one frozen list: its
// smallpaths by ascending length (insertion order within a length),
// then its bestpaths in signature order — the order extend reads them
// in, which decides which of two last-ulp variants of one path
// survives.
type normRun struct {
	g       *clustergraph.Graph
	lmin    int
	suffix  bool
	noPrune bool
	beam    int
	global  *topk.K
	stats   Stats

	slab slab
	// frozen[i mod (g+2)] holds the lists of interval i's nodes back to
	// back, state[id] the bounds of node id's; an interval's buffer is
	// reused once it has left the g+1 window.
	frozen [][]ref
	state  []struct{ lo, hi int }

	// The node being processed: its smallpaths, and its bestpaths with
	// their node sequences laid out in seq and indexed by a hash of the
	// sequence in seen (open addressing; a slot is live when its
	// generation is the node's).
	small []smallPath
	best  []bestPath
	seq   []int64
	seen  []seenSlot
	gen   uint32

	// Scratch of place: the candidate's nodes, the weight of the hop
	// into each and the cumulative prefix weights.
	nodes []int64
	hop   []float64
	cum   []float64
}

type smallPath struct {
	ref    ref
	length int
}

// bestPath is a candidate of length >= lmin ending at the node being
// processed; its nodes are seq[off : off+n].
type bestPath struct {
	ref    ref
	hash   uint64
	off, n int
}

type seenSlot struct {
	hash uint64
	idx  int32 // index into best
	gen  uint32
}

func newNormRun(g *clustergraph.Graph, req Request, lmin int) *normRun {
	return &normRun{
		g:       g,
		lmin:    lmin,
		suffix:  req.SuffixDominance,
		noPrune: req.DisableTheorem1Pruning,
		beam:    req.BeamWidth,
		global:  topk.NewK(req.K),
		frozen:  make([][]ref, g.Gap()+2),
		state:   make([]struct{ lo, hi int }, g.NumNodes()),
		seen:    make([]seenSlot, 64),
	}
}

func (r *normRun) processInterval(i int) {
	lo := max(i-r.g.Gap()-1, 0)
	for j := lo; j < i; j++ {
		r.stats.NodeReads += int64(len(r.g.NodesAt(j)))
	}
	// Interval i−g−2 left the window one interval ago; its buffer is
	// interval i's now.
	out := r.frozen[i%len(r.frozen)][:0]
	for _, id := range r.g.NodesAt(i) {
		r.small, r.best, r.seq = r.small[:0], r.best[:0], r.seq[:0]
		r.gen++
		for _, ph := range r.g.Parents(id) {
			r.stats.EdgeReads++
			r.extend(id, ph)
		}
		if r.suffix {
			r.dropDominatedSuffixes()
		}
		if r.beam > 0 {
			r.capBeam()
		}
		r.stats.NodeWrites++
		at := len(out)
		out = r.freeze(out, i < r.g.NumIntervals()-1)
		r.state[id].lo, r.state[id].hi = at, len(out)
	}
	r.frozen[i%len(r.frozen)] = out
	// Per-node state outside the g+1 window is gone; what is held is
	// the window from i−g on.
	var held int64
	for j := max(i-r.g.Gap(), 0); j <= i; j++ {
		held += int64(len(r.frozen[j%len(r.frozen)]))
	}
	r.stats.PeakStatePaths = max(r.stats.PeakStatePaths, held)
}

// extend folds the parent's paths across the edge into the node's
// smallpaths/bestpaths, per the update rules of Section 4.5.
func (r *normRun) extend(id int64, ph clustergraph.Half) {
	// Theorem 1 needs the weight of every prefix of a path, which is
	// re-derived hop by hop from the weight the graph lists first for
	// each hop's node pair. That is ph.Weight unless the builder was
	// handed parallel edges.
	hop := ph.Weight
	for _, h := range r.g.Children(ph.Peer) {
		if h.Peer == id {
			hop = h.Weight
			break
		}
	}
	// The edge alone.
	r.place(id, bare(ph.Peer), hop, ph.Weight, ph.Length)
	// Extensions of the parent's smallpaths (all lengths; gap edges can
	// jump from below lmin to above it, so unlike the paper's formula —
	// written for the exact x = lmin − length(c'c) — every extension is
	// routed by its resulting length), then of its bestpaths, in the
	// frozen order: the same node sequence can be regenerated with
	// weights differing in the last ulp (direct summation vs Theorem 1's
	// subtraction) and the last variant written is the one retained.
	st := r.state[ph.Peer]
	for _, p := range r.frozen[r.g.Interval(ph.Peer)%len(r.frozen)][st.lo:st.hi] {
		rec := r.slab.at(p)
		r.place(id, p, hop, rec.weight+ph.Weight, int(rec.length)+ph.Length)
	}
}

// place routes the newly generated path that grows link by node id:
// short paths go to smallpaths; qualifying paths are checked against
// the global heap, pruned with Theorem 1, and retained as candidates.
// hop is the last edge's weight for prefix bookkeeping (see extend).
func (r *normRun) place(id int64, link ref, hop, weight float64, length int) {
	rec := r.slab.grow(id, link, weight, length)
	rec.edge = hop
	if length < r.lmin {
		r.small = append(r.small, smallPath{r.slab.add(rec), length})
		return
	}
	// Lay the path out: nodes, and the weight of the hop into each.
	n := int(rec.hops)
	r.nodes = slices.Grow(r.nodes[:0], n)[:n]
	r.hop = slices.Grow(r.hop[:0], n)[:n]
	r.nodes[n-1], r.hop[n-1] = id, hop
	for j, p := n-2, link; j >= 0; j-- {
		if p < 0 {
			r.nodes[j] = int64(^p)
			break
		}
		at := r.slab.at(p)
		r.nodes[j], r.hop[j] = at.node, at.edge
		p = at.link
	}
	r.considerGlobal(r.nodes, weight, length)
	from := 0
	if !r.noPrune {
		from, weight, length = r.pruneTheorem1(weight, length)
		if from > 0 {
			// The pruned remainder is itself a qualifying path that
			// future edges will extend; it was generated independently
			// too, but checking here is cheap and keeps the invariant
			// local.
			r.considerGlobal(r.nodes[from:], weight, length)
			rec.weight, rec.length, rec.hops = weight, int32(length), int32(n-from)
		}
	}
	r.retain(rec, r.nodes[from:])
}

// retain records a bestpaths candidate, de-duplicated by node sequence:
// a path seen before keeps its slot and takes the new weight (the last
// write wins).
func (r *normRun) retain(rec pathRec, nodes []int64) {
	hash := uint64(len(nodes))
	for _, v := range nodes {
		hash = mix(hash, v)
	}
	mask := uint64(len(r.seen) - 1)
	at := hash & mask
	for ; r.seen[at].gen == r.gen; at = (at + 1) & mask {
		if r.seen[at].hash != hash {
			continue
		}
		if b := r.best[r.seen[at].idx]; slices.Equal(r.seq[b.off:b.off+b.n], nodes) {
			r.slab.at(b.ref).weight = rec.weight
			return
		}
	}
	r.seen[at] = seenSlot{hash: hash, idx: int32(len(r.best)), gen: r.gen}
	r.best = append(r.best, bestPath{ref: r.slab.add(rec), hash: hash, off: len(r.seq), n: len(nodes)})
	r.seq = append(r.seq, nodes...)
	if 2*len(r.best) > len(r.seen) {
		r.growSeen()
	}
}

// growSeen doubles the hash index and re-enters the node's candidates.
func (r *normRun) growSeen() {
	r.seen = make([]seenSlot, 2*len(r.seen))
	mask := uint64(len(r.seen) - 1)
	for i, b := range r.best {
		at := b.hash & mask
		for r.seen[at].gen == r.gen {
			at = (at + 1) & mask
		}
		r.seen[at] = seenSlot{hash: b.hash, idx: int32(i), gen: r.gen}
	}
}

// considerGlobal offers a qualifying path to the global top-k, ranked
// by stability.
func (r *normRun) considerGlobal(nodes []int64, weight float64, length int) {
	r.stats.HeapConsiders++
	if stability := weight / float64(length); stability >= r.global.Threshold() {
		offerGlobal(r.global, nodes, stability, length)
	}
}

// pruneTheorem1 repeatedly drops prefixes of the path laid out in
// r.nodes/r.hop that Theorem 1 justifies dropping: if π = pre·curr with
// length(curr) >= lmin and stability(pre) <= stability(curr), then curr
// extends at least as well as π for every suffix, so pre is discarded.
// It returns the index of the first node kept and the weight and length
// of what is kept.
func (r *normRun) pruneTheorem1(weight float64, length int) (int, float64, int) {
	nodes := r.nodes
	t := len(nodes) - 1
	last := r.g.Interval(nodes[t])
	if t < 2 || last-r.g.Interval(nodes[1]) < r.lmin {
		return 0, weight, length // no split point leaves curr long enough
	}
	// cum[j] is the weight of the prefix ending at nodes[j], summed
	// forward from the path's own first node and, after a drop, rebased
	// by subtraction — the arithmetic whose last ulp the results pin.
	cum := slices.Grow(r.cum[:0], t+1)[:t+1]
	r.cum = cum
	cum[0] = 0
	for j := 1; j <= t; j++ {
		cum[j] = cum[j-1] + r.hop[j]
	}
	from := 0
	for j := 1; j < t; j++ {
		currLen := last - r.g.Interval(nodes[j])
		if currLen < r.lmin {
			break // later split points only shorten curr further
		}
		preLen := r.g.Interval(nodes[j]) - r.g.Interval(nodes[from])
		preW := cum[j]
		currW := weight - preW
		// stability(pre) <= stability(curr), cross-multiplied to avoid
		// division.
		if preW*float64(currLen) <= currW*float64(preLen) {
			weight, length, from = currW, currLen, j
			for i := j; i <= t; i++ {
				cum[i] -= preW
			}
		}
	}
	return from, weight, length
}

// compareSignature orders node sequences as their decimal renderings
// joined by commas sort as strings — the bestpaths order the pinned
// results were recorded under — without building the strings:
// element-wise by decimal text, a sequence before its extensions.
func compareSignature(a, b []int64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return compareDecimal(uint64(a[i]), uint64(b[i]))
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compareDecimal orders two distinct non-negative integers as their
// decimal texts compare; a proper prefix sorts first (the comma or end
// of string that follows it ranks below every digit).
func compareDecimal(a, b uint64) int {
	da, db := decimalDigits(a), decimalDigits(b)
	// Compare the leading min(da, db) digits numerically.
	ha, hb := a, b
	for ; da > db; da-- {
		ha /= 10
	}
	for ; db > da; db-- {
		hb /= 10
	}
	if ha != hb {
		return cmp.Compare(ha, hb)
	}
	return cmp.Compare(a, b) // equal heads: the shorter text is the smaller number
}

func decimalDigits(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// capBeam keeps only the BeamWidth highest-stability candidates at the
// node being processed.
func (r *normRun) capBeam() {
	if len(r.best) <= r.beam {
		return
	}
	slices.SortFunc(r.best, func(a, b bestPath) int {
		ra, rb := r.slab.at(a.ref), r.slab.at(b.ref)
		sa, sb := ra.weight/float64(ra.length), rb.weight/float64(rb.length)
		return cmp.Or(cmp.Compare(sb, sa), r.compareBest(a, b))
	})
	r.best = r.best[:r.beam]
}

func (r *normRun) compareBest(a, b bestPath) int {
	return compareSignature(r.seq[a.off:a.off+a.n], r.seq[b.off:b.off+b.n])
}

// dropDominatedSuffixes removes retained paths that are suffixes of
// other retained paths (the optional, unsound-in-general rule the
// paper sketches; see Request.SuffixDominance).
func (r *normRun) dropDominatedSuffixes() {
	r.best = slices.DeleteFunc(r.best, func(b bestPath) bool {
		short := r.seq[b.off : b.off+b.n]
		return slices.ContainsFunc(r.best, func(a bestPath) bool {
			return a.n > b.n && slices.Equal(r.seq[a.off+a.n-b.n:a.off+a.n], short)
		})
	})
}

// freeze appends the processed node's state to out, in the order
// extend will read it back if anything is left to extend it.
func (r *normRun) freeze(out []ref, ordered bool) []ref {
	if ordered {
		slices.SortStableFunc(r.small, func(a, b smallPath) int { return cmp.Compare(a.length, b.length) })
		slices.SortFunc(r.best, r.compareBest)
	}
	for _, p := range r.small {
		out = append(out, p.ref)
	}
	for _, p := range r.best {
		out = append(out, p.ref)
	}
	return out
}
