package core

import (
	"math/bits"
	"slices"

	"repro/internal/topk"
)

// The solvers do not carry paths as node slices. A path is a chain of
// parent pointers through a slab, which BFS and DFS take from the
// workspace (workspace.go) and each solve empties and refills, so
// extending a path costs one slot — written only once the target heap
// has admitted the extension — and a candidate that loses on weight
// costs nothing at all. topk.Path
// values are materialised for the final top-k and where a tie has to be
// broken on node order.

// ref names a path in a slab: a slot index when >= 0, otherwise the
// single-node path {^ref}, which needs no slot.
type ref int

// bare is the ref of the single-node path {node}.
func bare(node int64) ref { return ^ref(node) }

// pathRec is one slab slot: the path that adds node to the path link.
// BFS and TA suffixes grow paths at the end, so their chains run last
// node → first; DFS and TA prefixes grow at the front and their chains
// run first → last. hops counts the path's nodes.
type pathRec struct {
	node   int64
	link   ref
	weight float64
	length int32 // temporal length
	hops   int32
}

// slab stores pathRecs in pages so that growing never copies a record
// past the first page: the first grows like any slice from
// slabFirstRecs records (small solves stay small), later ones are
// allocated whole. A later page holds slabPageSize records (16 KiB), so
// a solve that spills past the first page wastes at most that much; the
// size was measured at k 40 on a corpus graph against larger pages,
// which cost bytes, and smaller ones, which cost objects.
type slab struct {
	pages [][]pathRec
	n     int
}

const (
	slabPageBits  = 9
	slabPageSize  = 1 << slabPageBits
	slabFirstRecs = 32
)

// at returns slot r.
func (s *slab) at(r ref) *pathRec { return &s.pages[r>>slabPageBits][r&(slabPageSize-1)] }

// hops returns the number of nodes on path r.
func (s *slab) hops(r ref) int {
	if r < 0 {
		return 1
	}
	return int(s.at(r).hops)
}

// head returns the node path r was last grown by.
func (s *slab) head(r ref) int64 {
	if r < 0 {
		return int64(^r)
	}
	return s.at(r).node
}

// add stores rec and returns its ref.
func (s *slab) add(rec pathRec) ref {
	p := s.n >> slabPageBits
	if p == len(s.pages) {
		size := slabPageSize
		if p == 0 {
			size = slabFirstRecs
		}
		s.pages = append(s.pages, make([]pathRec, 0, size))
	}
	s.pages[p] = append(s.pages[p], rec)
	s.n++
	return ref(s.n - 1)
}

// grow returns the record of the path that grows link by node.
func (s *slab) grow(node int64, link ref, weight float64, length int) pathRec {
	return pathRec{node: node, link: link, weight: weight, length: int32(length), hops: int32(s.hops(link) + 1)}
}

// reset forgets every path but keeps the pages.
func (s *slab) reset() {
	for i := range s.pages {
		s.pages[i] = s.pages[i][:0]
	}
	s.n = 0
}

// appendChain appends the nodes of path r to dst in chain order.
func (s *slab) appendChain(dst []int64, r ref) []int64 {
	for n := s.hops(r); n > 0; n-- {
		dst = append(dst, s.head(r))
		if r >= 0 {
			r = s.at(r).link
		}
	}
	return dst
}

// appendReversed appends the nodes of path r to dst against chain
// order.
func (s *slab) appendReversed(dst []int64, r ref) []int64 {
	at := len(dst)
	dst = s.appendChain(dst, r)
	slices.Reverse(dst[at:])
	return dst
}

// sameChain reports whether paths a and b, both hops nodes long, visit
// the same nodes. Chains that share a tail are equal from there on.
func (s *slab) sameChain(a, b ref, hops int) bool {
	for ; a != b; hops-- {
		if s.head(a) != s.head(b) {
			return false
		}
		if hops == 1 {
			break
		}
		a, b = s.at(a).link, s.at(b).link
	}
	return true
}

// mix folds node into the fingerprint h of a node sequence.
func mix(h uint64, node int64) uint64 {
	h = (h ^ uint64(node)) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// bareFP is the fingerprint of the single-node path {node}.
func bareFP(node int64) uint64 { return mix(0, node) }

// pathHeaps holds every per-node top-k heap of one solve — the h^x_ij
// of Algorithm 2, the bestpaths of Algorithm 3. Heap i is a block of
// contiguous entries inside a page, handed out on its first offer and
// recycled on release. A block grows with its heap: the first holds
// heapFirstCap entries (k when k is smaller), and a heap that fills its
// block moves, in heap order, to one twice as large, up to k, so a
// solve's heap bytes follow the paths it retains and not k times the
// heaps it opens. Each capacity is a size class with its own free list
// of released blocks, linked through each block's first entry. Pages
// follow the slab's policy: the first grows (by doubling, up to
// pageLen entries) so that a small solve stays small, every later one
// is allocated whole, and a full page never moves — a solve that needs
// more heaps copies none of the ones it has. A reset empties the pages
// in place, and the next solve fills them again in order before it
// allocates another. Heaps are min-heaps under topk.Better (the root is
// the worst retained path) and behave as topk.K does, duplicates
// included.
type pathHeaps struct {
	s *slab
	k int
	// prepended says which way the slab's chains run: first → last
	// (DFS) or last → first (BFS).
	prepended bool
	// reuse lets an admitted path overwrite the slot of the one it
	// evicts. Sound when a heap takes all its offers before any path
	// links to one of its own (BFS: a node's heaps fill while earlier
	// intervals are pushed, and only its own push links to them) or
	// when no path ever links to its own (BFS's global heap), not when
	// heaps keep improving after they were read (DFS).
	reuse bool
	heaps []heapSpan
	// pages[:used] hold blocks; the rest are empty pages an earlier
	// solve left, taken in order before any new one is allocated.
	pages [][]heapEnt
	used  int
	// free heads each size class's list of released blocks: blockLoc of
	// the first, 0 when the list is empty. A released block's first
	// entry holds the next block's blockLoc in fp.
	free [maxHeapClasses]uint64
	held int     // paths retained across all heaps
	a, b []int64 // scratch for breaking weight ties on node order
}

const (
	// heapPageEnts is the size a page of heap entries aims for (96 KiB).
	heapPageEnts = 4096
	// heapFirstCap is the capacity of a heap's first block, a power of
	// two; class c holds min(k, heapFirstCap<<c) entries.
	heapFirstCapBits = 2
	heapFirstCap     = 1 << heapFirstCapBits
	// maxHeapClasses covers every k a heapSpan can count.
	maxHeapClasses = 32
)

// pageLen is the entries in a page: heapPageEnts, or one block of k
// when k is larger than that.
func (hs *pathHeaps) pageLen() int { return max(heapPageEnts, hs.k) }

// class returns the size class of the block a heap of n ≥ 1 entries
// lives in: the smallest that holds n.
func class(n int) int { return max(bits.Len(uint(n-1))-heapFirstCapBits, 0) }

// classCap returns the entries a block of class c holds.
func (hs *pathHeaps) classCap(c int) int { return min(hs.k, heapFirstCap<<c) }

// heapSpan locates a heap: its block starts at offset off of page page
// and its first n entries are in use. page and off mean nothing while
// n == 0 — the heap has no block yet, or gave it back. The block's
// capacity is not stored: it is classCap(class(n)), since a heap only
// grows until it is released. DFS keeps a span for every node and
// length, so every byte here is paid per node.
type heapSpan struct {
	page, off, n int32
}

// blockLoc names block h in a free list: its page and offset, plus one
// so that 0 ends a list.
func blockLoc(h heapSpan) uint64 { return uint64(h.page)<<32 | uint64(h.off) + 1 }

// blockAt returns the block blockLoc named, with n 0.
func blockAt(loc uint64) heapSpan {
	return heapSpan{page: int32((loc - 1) >> 32), off: int32(uint32(loc - 1))}
}

// heapEnt is one retained path: its slab record's weight, and fp, a
// fingerprint of its node sequence in chain order — mix(fingerprint of
// the link, node) — so that ranking a path or looking for a duplicate
// reads the block and nothing else. fp lives here and not in pathRec
// because only a path some heap retains is ever compared for identity:
// TA, which keeps no pathHeaps, would carry eight dead bytes per slab
// slot.
type heapEnt struct {
	weight float64
	ref    ref
	fp     uint64
}

func newPathHeaps(s *slab, k, count int) *pathHeaps {
	hs := new(pathHeaps)
	hs.reset(s, k, count)
	return hs
}

// reset makes hs what newPathHeaps(s, k, count) returns, keeping the
// arrays it holds: the spans, the pages, emptied, and the scratch.
func (hs *pathHeaps) reset(s *slab, k, count int) {
	for i := range hs.pages {
		hs.pages[i] = hs.pages[i][:0]
	}
	*hs = pathHeaps{s: s, k: k, heaps: zeroed(hs.heaps, count), pages: hs.pages, a: hs.a[:0], b: hs.b[:0]}
}

// entries returns the retained paths of heap h, in heap order. The
// slice is good until the next offer to any heap.
func (hs *pathHeaps) entries(h heapSpan) []heapEnt {
	if h.n == 0 {
		return nil
	}
	return hs.pages[h.page][h.off : h.off+h.n]
}

// size returns the number of paths heap i retains.
func (hs *pathHeaps) size(i int) int { return int(hs.heaps[i].n) }

// at returns the j-th retained path of heap i, in no particular order.
func (hs *pathHeaps) at(i, j int) heapEnt {
	h := hs.heaps[i]
	return hs.pages[h.page][int(h.off)+j]
}

// reserve makes room for n heaps.
func (hs *pathHeaps) reserve(n int) {
	if n <= len(hs.heaps) {
		return
	}
	if n > cap(hs.heaps) {
		spans := make([]heapSpan, n)
		copy(spans, hs.heaps)
		hs.heaps = spans
		return
	}
	clear(hs.heaps[len(hs.heaps):n])
	hs.heaps = hs.heaps[:n]
}

// release empties heaps lo..hi−1 and recycles their blocks.
func (hs *pathHeaps) release(lo, hi int) {
	for i := lo; i < hi; i++ {
		if h := &hs.heaps[i]; h.n > 0 {
			hs.held -= int(h.n)
			hs.recycle(*h)
			h.n = 0
		}
	}
}

// recycle puts the block of heap h, which holds h.n > 0 entries, at the
// head of its class's free list.
func (hs *pathHeaps) recycle(h heapSpan) {
	c := class(int(h.n))
	hs.pages[h.page][h.off].fp = hs.free[c]
	hs.free[c] = blockLoc(h)
}

// consider offers heap i the path growing link — whose nodes have the
// fingerprint linkFP — by node, exactly as topk.K.Consider would, but
// decides on weight before anything is written: a full heap turns a
// path strictly below its floor away untouched, and only an admitted
// path gets a slab slot. Equal weights fall through to the
// lexicographic comparison. A retained path is the candidate's
// duplicate only if the fingerprints agree and then the chains do, so
// two paths whose fingerprints collide cost one walk and are both kept.
func (hs *pathHeaps) consider(i int, node int64, link ref, linkFP uint64, weight float64, length int) {
	h := &hs.heaps[i]
	e := hs.entries(*h)
	if len(e) == hs.k && weight < e[0].weight {
		return
	}
	s := hs.s
	fp := mix(linkFP, node)
	for j := range e {
		if e[j].fp != fp {
			continue
		}
		old := s.at(e[j].ref)
		if hops := s.hops(link); old.node != node || int(old.hops) != hops+1 || !s.sameChain(old.link, link, hops) {
			continue
		}
		// A rediscovery (DFS after visited flags are unmarked, or a
		// parallel edge): the heavier copy survives.
		if weight > e[j].weight {
			e[j] = heapEnt{weight, hs.store(s.grow(node, link, weight, length), e[j].ref), fp}
			hs.fix(e, j)
		}
		return
	}
	rec := s.grow(node, link, weight, length)
	if n := len(e); n < hs.k {
		if n == 0 || n == hs.classCap(class(n)) {
			hs.grow(h)
		}
		h.n++
		hs.held++
		e = hs.entries(*h)
		e[n] = heapEnt{weight, s.add(rec), fp}
		hs.up(e, n)
		return
	}
	if weight == e[0].weight {
		hs.a = hs.nodes(hs.a[:0], node, link)
		hs.b = hs.refNodes(hs.b[:0], e[0].ref)
		if slices.Compare(hs.a, hs.b) >= 0 {
			return
		}
	}
	e[0] = heapEnt{weight, hs.store(rec, e[0].ref), fp}
	hs.down(e, 0)
}

// store puts rec in the slab in place of the path evicted, whose slot
// it takes over when the solver said nothing can link to it yet.
func (hs *pathHeaps) store(rec pathRec, evicted ref) ref {
	if hs.reuse {
		*hs.s.at(evicted) = rec
		return evicted
	}
	return hs.s.add(rec)
}

// grow moves heap *h, whose block is full or which has none, to a block
// of the next class, keeping its entries in heap order, and recycles
// the block it leaves.
func (hs *pathHeaps) grow(h *heapSpan) {
	to := hs.block(class(int(h.n) + 1))
	if h.n > 0 {
		copy(hs.pages[to.page][to.off:], hs.entries(*h))
		hs.recycle(*h)
	}
	to.n = h.n
	*h = to
}

// block returns an unused block of class c: a released one while the
// class has any, else the next entries of the last page in use.
func (hs *pathHeaps) block(c int) heapSpan {
	if loc := hs.free[c]; loc != 0 {
		h := blockAt(loc)
		hs.free[c] = hs.pages[h.page][h.off].fp
		return h
	}
	size, last, pageLen := hs.classCap(c), hs.used-1, hs.pageLen()
	if last < 0 || len(hs.pages[last])+size > pageLen {
		if hs.used == len(hs.pages) {
			var page []heapEnt
			if last >= 0 {
				page = make([]heapEnt, 0, pageLen)
			}
			hs.pages = append(hs.pages, page)
		}
		hs.used++
		last++
	}
	page := hs.pages[last]
	off := len(page)
	if off+size > cap(page) {
		// The first page grows, and so does a page that an earlier solve
		// with a smaller k left.
		page = append(make([]heapEnt, 0, min(max(2*cap(page), off+size, hs.k), pageLen)), page...)
	}
	hs.pages[last] = page[:off+size]
	return heapSpan{page: int32(last), off: int32(off)}
}

// nodes appends, in path order, the nodes of the path growing link by
// node.
func (hs *pathHeaps) nodes(dst []int64, node int64, link ref) []int64 {
	if hs.prepended {
		return hs.s.appendChain(append(dst, node), link)
	}
	return append(hs.s.appendReversed(dst, link), node)
}

// refNodes appends the nodes of slab path r in path order.
func (hs *pathHeaps) refNodes(dst []int64, r ref) []int64 {
	rec := hs.s.at(r)
	return hs.nodes(dst, rec.node, rec.link)
}

// items returns heap i's paths as topk.Path values, best first.
func (hs *pathHeaps) items(i int) []topk.Path {
	e := hs.entries(hs.heaps[i])
	out := make([]topk.Path, len(e))
	for j, x := range e {
		rec := hs.s.at(x.ref)
		out[j] = topk.Path{Nodes: hs.refNodes(make([]int64, 0, rec.hops), x.ref), Length: int(rec.length), Weight: rec.weight}
	}
	slices.SortFunc(out, topk.Compare)
	return out
}

// worse reports whether entry x ranks below entry y under topk.Better.
func (hs *pathHeaps) worse(x, y heapEnt) bool {
	if x.weight != y.weight {
		return x.weight < y.weight
	}
	hs.a = hs.refNodes(hs.a[:0], x.ref)
	hs.b = hs.refNodes(hs.b[:0], y.ref)
	return slices.Compare(hs.a, hs.b) > 0
}

// fix, up and down restore heap order in the entries e of one heap
// after e[j] changed.
func (hs *pathHeaps) fix(e []heapEnt, j int) {
	if !hs.down(e, j) {
		hs.up(e, j)
	}
}

func (hs *pathHeaps) up(e []heapEnt, j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !hs.worse(e[j], e[p]) {
			break
		}
		e[j], e[p] = e[p], e[j]
		j = p
	}
}

func (hs *pathHeaps) down(e []heapEnt, j int) bool {
	start := j
	for {
		c := 2*j + 1
		if c >= len(e) {
			break
		}
		if c+1 < len(e) && hs.worse(e[c+1], e[c]) {
			c++
		}
		if !hs.worse(e[c], e[j]) {
			break
		}
		e[j], e[c] = e[c], e[j]
		j = c
	}
	return j > start
}

// nodeSlots gives each node a dense slot on its first request, so that a
// solve's per-node state is sized by the nodes it touches, not by N. It
// is an open-addressed table with linear probing whose cells hold slot+1
// (0: empty), at most half of them in use; ids maps a slot back to its
// node, in the order the slots were handed out. Cells and ids share one
// allocation, made once for the slots a solve is expected to need and
// again, twice as large, each time it runs out.
type nodeSlots struct {
	cells []int64
	ids   []int64
	shift uint // 64 − log2(len(cells))
}

func newNodeSlots(n int) nodeSlots {
	b := uint(bits.Len(uint(2*n - 1)))
	c := 1 << b
	buf := make([]int64, c+n)
	return nodeSlots{cells: buf[:c], ids: buf[c:c], shift: 64 - b}
}

// probe returns the cell that holds id, or the empty cell it would take.
func (t *nodeSlots) probe(id int64) int {
	mask := len(t.cells) - 1
	c := int(uint64(id) * 0x9e3779b97f4a7c15 >> t.shift)
	for t.cells[c] != 0 && t.ids[t.cells[c]-1] != id {
		c = (c + 1) & mask
	}
	return c
}

// reset forgets every slot but keeps the table.
func (t *nodeSlots) reset() {
	clear(t.cells)
	t.ids = t.ids[:0]
}

// resize empties t and makes room for n slots: t's own table when it
// has that many, else newNodeSlots(n).
func (t *nodeSlots) resize(n int) {
	if cap(t.ids) < n {
		*t = newNodeSlots(n)
		return
	}
	t.reset()
}

// find returns id's slot, ok false when it has none.
func (t *nodeSlots) find(id int64) (slot int, ok bool) {
	c := t.cells[t.probe(id)]
	return int(c) - 1, c != 0
}

// slot returns id's slot, handing out the next one on id's first
// request.
func (t *nodeSlots) slot(id int64) int {
	c := t.probe(id)
	if t.cells[c] != 0 {
		return int(t.cells[c]) - 1
	}
	if len(t.ids) == cap(t.ids) {
		old := t.ids
		*t = newNodeSlots(2 * len(old))
		for _, v := range old {
			t.ids = append(t.ids, v)
			t.cells[t.probe(v)] = int64(len(t.ids))
		}
		c = t.probe(id)
	}
	t.ids = append(t.ids, id)
	t.cells[c] = int64(len(t.ids))
	return len(t.ids) - 1
}

// offerGlobal offers the global top-k the path held in the scratch
// slice nodes. Callers count the offer, turn away weights strictly below
// global.Threshold() without building the nodes, and come here with the
// rest; the nodes are copied out of the scratch slice only once the
// path is known to outrank the floor of a full heap — one that does not
// cannot enter, whether or not it duplicates a retained path.
func offerGlobal(global *topk.K, nodes []int64, weight float64, length int) {
	p := topk.Path{Nodes: nodes, Length: length, Weight: weight}
	if floor, full := global.Floor(); full && !topk.Better(p, floor) {
		return
	}
	p.Nodes = slices.Clone(nodes)
	global.Consider(p)
}
