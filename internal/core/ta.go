package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/clustergraph"
	"repro/internal/topk"
)

// ErrSeekBudget is returned (wrapped) when a TA run exceeds MaxSeeks.
var ErrSeekBudget = fmt.Errorf("core: TA random-seek budget exhausted")

// solveTA solves the stable-clusters problem for full paths (l must be
// m−1, per Section 4.4) by adapting the threshold algorithm: one
// weight-descending edge list per interval pair, consumed round-robin;
// every seen edge is expanded — via random seeks — into all full paths
// containing it; the run stops when the current k-th best weight
// reaches the virtual-tuple bound (the sum of the top unseen weights of
// all lists).
func solveTA(ctx context.Context, g *clustergraph.Graph, req Request) (*Result, error) {
	l, err := req.resolveL(g)
	if err != nil {
		return nil, err
	}
	if l != g.NumIntervals()-1 {
		return nil, fmt.Errorf("%w: TA finds full paths only (l = m-1 = %d), got l = %d", ErrInvalidRequest, g.NumIntervals()-1, l)
	}
	r := &taRun{
		g:        g,
		k:        req.K,
		useBound: !req.DisableBoundHashTables,
		maxSeeks: req.MaxSeeks,
		ctx:      ctx,
		global:   topk.NewK(req.K),
		startwts: make(map[int64]float64),
		endwts:   make(map[int64]float64),
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return &Result{Paths: r.global.Items(), Stats: r.stats}, nil
}

type taEdge struct {
	from, to int64
	weight   float64
	length   int
}

type taRun struct {
	g        *clustergraph.Graph
	k        int
	useBound bool
	maxSeeks int64
	ctx      context.Context
	global   *topk.K
	stats    Stats

	// startwts[c] is the weight of the best full-suffix starting at c
	// (reaching the last interval); endwts[c] the best full-prefix
	// ending at c (from interval 0). Populated lazily as nodes are
	// expanded, exactly as Section 4.4 describes.
	startwts map[int64]float64
	endwts   map[int64]float64
}

// buildLists materializes one weight-descending edge list per interval
// pair (i, j), j−i ≤ g+1.
func (r *taRun) buildLists() [][]taEdge {
	g := r.g
	listIndex := map[[2]int]int{}
	var lists [][]taEdge
	for i := 0; i < g.NumIntervals(); i++ {
		for j := i + 1; j <= i+g.Gap()+1 && j < g.NumIntervals(); j++ {
			listIndex[[2]int{i, j}] = len(lists)
			lists = append(lists, nil)
		}
	}
	for i := 0; i < g.NumIntervals(); i++ {
		for _, u := range g.NodesAt(i) {
			for _, h := range g.Children(u) {
				key := [2]int{i, i + h.Length}
				li := listIndex[key]
				lists[li] = append(lists[li], taEdge{from: u, to: h.Peer, weight: h.Weight, length: h.Length})
			}
		}
	}
	for _, list := range lists {
		sort.Slice(list, func(a, b int) bool {
			if list[a].weight != list[b].weight {
				return list[a].weight > list[b].weight
			}
			if list[a].from != list[b].from {
				return list[a].from < list[b].from
			}
			return list[a].to < list[b].to
		})
	}
	return lists
}

func (r *taRun) run() error {
	lists := r.buildLists()
	pos := make([]int, len(lists))
	m := r.g.NumIntervals()

	for {
		if err := ctxErr(r.ctx); err != nil {
			return err
		}
		// Virtual tuple: the sum of the best unseen weight of every
		// list. Any entirely-unseen path is composed of unseen edges, a
		// subset of the lists, so (weights being positive) the full sum
		// is a safe upper bound.
		virtual := 0.0
		exhausted := true
		for li, list := range lists {
			if pos[li] < len(list) {
				virtual += list[pos[li]].weight
				exhausted = false
			}
		}
		if exhausted {
			return nil
		}
		if r.global.Len() == r.k && r.global.Threshold() >= virtual {
			return nil // the stopping rule
		}
		// Round-robin: consume the head of each non-empty list.
		for li := range lists {
			if pos[li] >= len(lists[li]) {
				continue
			}
			e := lists[li][pos[li]]
			pos[li]++
			if err := r.expand(e, m); err != nil {
				return err
			}
		}
	}
}

// expand performs the random seeks that materialize every full path
// containing edge e and checks each against the top-k heap.
func (r *taRun) expand(e taEdge, m int) error {
	if r.useBound {
		sw, swOK := r.startwts[e.to]
		ew, ewOK := r.endwts[e.from]
		if swOK && ewOK {
			// Both bounds known: skip the expansion when even the best
			// combination cannot qualify.
			if r.global.Len() == r.k && ew+e.weight+sw < r.global.Threshold() {
				r.stats.Pruned++
				return nil
			}
		}
	}
	prefixes, err := r.pathsEnding(e.from)
	if err != nil {
		return err
	}
	suffixes, err := r.pathsStarting(e.to)
	if err != nil {
		return err
	}
	for _, p := range prefixes {
		for _, s := range suffixes {
			nodes := make([]int64, 0, len(p.Nodes)+len(s.Nodes))
			nodes = append(nodes, p.Nodes...)
			nodes = append(nodes, s.Nodes...)
			r.stats.HeapConsiders++
			r.global.Consider(topk.Path{
				Nodes:  nodes,
				Length: m - 1,
				Weight: p.Weight + e.weight + s.Weight,
			})
		}
	}
	return nil
}

// pathsEnding enumerates all full prefixes: paths from interval 0
// ending at node c. Each adjacency examination is a random seek.
func (r *taRun) pathsEnding(c int64) ([]topk.Path, error) {
	if r.g.Interval(c) == 0 {
		return []topk.Path{{Nodes: []int64{c}}}, nil
	}
	var out []topk.Path
	var rec func(c int64, suffix topk.Path) error
	rec = func(c int64, suffix topk.Path) error {
		if err := r.seek(); err != nil {
			return err
		}
		for _, h := range r.g.Parents(c) {
			p := prepend(h.Peer, h.Length, h.Weight, suffix)
			if r.g.Interval(h.Peer) == 0 {
				out = append(out, p)
				continue
			}
			if err := rec(h.Peer, p); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(c, topk.Path{Nodes: []int64{c}}); err != nil {
		return nil, err
	}
	if r.useBound && len(out) > 0 {
		best := 0.0
		for i, p := range out {
			if i == 0 || p.Weight > best {
				best = p.Weight
			}
		}
		r.endwts[c] = best
	}
	return out, nil
}

// pathsStarting enumerates all full suffixes: paths from node c to the
// last interval.
func (r *taRun) pathsStarting(c int64) ([]topk.Path, error) {
	last := r.g.NumIntervals() - 1
	if r.g.Interval(c) == last {
		return []topk.Path{{Nodes: []int64{c}}}, nil
	}
	var out []topk.Path
	var rec func(c int64, prefix topk.Path) error
	rec = func(c int64, prefix topk.Path) error {
		if err := r.seek(); err != nil {
			return err
		}
		for _, h := range r.g.Children(c) {
			p := prefix.Append(h.Peer, h.Length, h.Weight)
			if r.g.Interval(h.Peer) == last {
				out = append(out, p)
				continue
			}
			if err := rec(h.Peer, p); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(c, topk.Path{Nodes: []int64{c}}); err != nil {
		return nil, err
	}
	if r.useBound && len(out) > 0 {
		best := 0.0
		for i, p := range out {
			if i == 0 || p.Weight > best {
				best = p.Weight
			}
		}
		r.startwts[c] = best
	}
	return out, nil
}

// seek accounts one random seek and enforces the budget. Seeks also
// carry the cancellation poll: a single round can expand into
// exponentially many seeks, so the per-round check alone is not prompt.
func (r *taRun) seek() error {
	r.stats.RandomSeeks++
	if r.maxSeeks > 0 && r.stats.RandomSeeks > r.maxSeeks {
		return fmt.Errorf("%w (limit %d)", ErrSeekBudget, r.maxSeeks)
	}
	if r.stats.RandomSeeks%4096 == 0 {
		if err := ctxErr(r.ctx); err != nil {
			return err
		}
	}
	return nil
}
