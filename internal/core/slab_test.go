package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/topk"
)

// chain interns nodes (in chain order, tail first) into hs's slab and
// returns the ref and fingerprint a solver would hold for it.
func chain(hs *pathHeaps, nodes ...int64) (ref, uint64) {
	link, fp := bare(nodes[0]), bareFP(nodes[0])
	for _, n := range nodes[1:] {
		link, fp = hs.s.add(hs.s.grow(n, link, 0, 0)), mix(fp, n)
	}
	return link, fp
}

// paths materialises every path heaps lo..hi−1 retain.
func (hs *pathHeaps) paths(lo, hi int) []topk.Path {
	var out []topk.Path
	for i := lo; i < hi; i++ {
		for _, e := range hs.entries(hs.heaps[i]) {
			rec := hs.s.at(e.ref)
			out = append(out, topk.Path{
				Nodes:  hs.nodes(make([]int64, 0, rec.hops), rec.node, rec.link),
				Length: int(rec.length),
				Weight: rec.weight,
			})
		}
	}
	return out
}

// TestPathHeapsRediscovery: DFS reaches the same nodes again through a
// different slab slot after a visited flag was unmarked. One entry, and
// the heavier copy is the one kept.
func TestPathHeapsRediscovery(t *testing.T) {
	hs := newPathHeaps(&slab{}, 3, 1)
	hs.prepended = true
	first, fp := chain(hs, 9, 5)
	second, fp2 := chain(hs, 9, 5)
	if first == second || fp != fp2 {
		t.Fatalf("want two slots with one fingerprint, got refs %d, %d and fingerprints %x, %x", first, second, fp, fp2)
	}
	hs.consider(0, 1, first, fp, 0.5, 2)
	hs.consider(0, 1, second, fp, 0.5, 2)
	hs.consider(0, 1, second, fp, 0.25, 2)
	if hs.size(0) != 1 || hs.held != 1 {
		t.Fatalf("size %d, held %d after three offers of one path, want 1 and 1", hs.size(0), hs.held)
	}
	hs.consider(0, 1, second, fp, 0.75, 2)
	want := []topk.Path{{Nodes: []int64{1, 5, 9}, Length: 2, Weight: 0.75}}
	if got := hs.items(0); !reflect.DeepEqual(got, want) || hs.held != 1 {
		t.Errorf("retained %v (held %d), want %v (held 1)", got, hs.held, want)
	}
}

// TestPathHeapsParallelEdge: a parallel edge re-offers a retained path
// at another weight. The heavier copy stays and the heap is put back in
// order around it: the path that was the floor no longer is.
func TestPathHeapsParallelEdge(t *testing.T) {
	hs := newPathHeaps(&slab{}, 3, 1)
	hs.reuse = true
	for _, c := range []struct {
		peer   int64
		weight float64
	}{{2, 0.25}, {3, 0.5}, {4, 0.75}} {
		hs.consider(0, 1, bare(c.peer), bareFP(c.peer), c.weight, 1)
	}
	if root := hs.at(0, 0); root.weight != 0.25 {
		t.Fatalf("floor %v before the re-offer, want 0.25", root.weight)
	}
	hs.consider(0, 1, bare(2), bareFP(2), 1, 1)   // the floor's path, now the best
	hs.consider(0, 1, bare(2), bareFP(2), 0.1, 1) // and lighter again: ignored
	if root := hs.at(0, 0); root.weight != 0.5 || hs.size(0) != 3 || hs.held != 3 {
		t.Fatalf("floor %v, size %d, held %d after the re-offer, want 0.5, 3, 3", root.weight, hs.size(0), hs.held)
	}
	hs.consider(0, 1, bare(5), bareFP(5), 0.4, 1) // below the new floor
	hs.consider(0, 1, bare(6), bareFP(6), 0.6, 1) // evicts {3,1}
	want := []topk.Path{
		{Nodes: []int64{2, 1}, Length: 1, Weight: 1},
		{Nodes: []int64{4, 1}, Length: 1, Weight: 0.75},
		{Nodes: []int64{6, 1}, Length: 1, Weight: 0.6},
	}
	if got := hs.items(0); !reflect.DeepEqual(got, want) {
		t.Errorf("retained %v, want %v", got, want)
	}
}

// TestPathHeapsFingerprintCollision forces what a 64-bit fingerprint
// makes rare: two different chains offered under one fingerprint. The
// verification walk must tell them apart and keep both, and must still
// recognise a true duplicate of either.
func TestPathHeapsFingerprintCollision(t *testing.T) {
	for _, prepended := range []bool{false, true} {
		hs := newPathHeaps(&slab{}, 4, 1)
		hs.prepended = prepended
		const fp = 42
		a, _ := chain(hs, 7, 2)
		b, _ := chain(hs, 7, 3)
		hs.consider(0, 1, a, fp, 0.5, 2)
		hs.consider(0, 1, b, fp, 0.75, 2)
		hs.consider(0, 1, bare(2), fp, 0.25, 1) // same fingerprint, fewer hops
		if hs.size(0) != 3 || hs.held != 3 {
			t.Fatalf("prepended=%v: size %d, held %d for three colliding paths, want 3 and 3", prepended, hs.size(0), hs.held)
		}
		again, _ := chain(hs, 7, 2)
		hs.consider(0, 1, again, fp, 1, 2)
		if hs.size(0) != 3 {
			t.Fatalf("prepended=%v: a true duplicate under the shared fingerprint was kept twice", prepended)
		}
		var weights []float64
		for _, p := range hs.items(0) {
			weights = append(weights, p.Weight)
		}
		if want := []float64{1, 0.75, 0.25}; !slices.Equal(weights, want) {
			t.Errorf("prepended=%v: weights %v, want %v", prepended, weights, want)
		}
	}
}

// freeBlocks returns the blocks on size class c's free list, head
// first.
func (hs *pathHeaps) freeBlocks(c int) []heapSpan {
	var out []heapSpan
	for loc := hs.free[c]; loc != 0; {
		h := blockAt(loc)
		out = append(out, h)
		loc = hs.pages[h.page][h.off].fp
	}
	return out
}

// fillHeap offers heap i the n paths {1000+p, i} of weight n−p, p < n,
// and returns them as topk.Path values, best first.
func fillHeap(hs *pathHeaps, i, n int) []topk.Path {
	var want []topk.Path
	for p := range n {
		peer := int64(1000 + p)
		hs.consider(i, int64(i), bare(peer), bareFP(peer), float64(n-p), 1)
		want = append(want, topk.Path{Nodes: []int64{peer, int64(i)}, Length: 1, Weight: float64(n - p)})
	}
	return want
}

// TestPathHeapsRecycleAcrossPages: a released block is handed out again,
// within its size class, before the store grows, wherever in the store
// it lies; a full page is never moved; and held counts exactly the
// retained paths.
func TestPathHeapsRecycleAcrossPages(t *testing.T) {
	const k = 64 // blocks of 4, 8, 16, 32 and 64 entries
	hs := newPathHeaps(&slab{}, k, 256)
	used := func() (pages, last int) { return len(hs.pages), len(hs.pages[len(hs.pages)-1]) }
	want := make([][]topk.Path, 256)
	want[0] = fillHeap(hs, 0, k)
	// Growing to k leaves one block of every smaller class behind.
	if p, last := used(); p != 1 || last != 4+8+16+32+64 || hs.held != k {
		t.Fatalf("%d pages (last %d long), held %d after one heap of k; want 1 (124), %d", p, last, hs.held, k)
	}
	for c := range class(k) {
		if n := len(hs.freeBlocks(c)); n != 1 {
			t.Fatalf("class %d holds %d free blocks after one heap grew through it, want 1", c, n)
		}
	}
	if n := len(hs.freeBlocks(class(k))); n != 0 {
		t.Fatalf("class of k holds %d free blocks, want 0", n)
	}
	// The next heap grows through the blocks the first left and takes
	// only its block of k from the page.
	want[1] = fillHeap(hs, 1, k)
	if p, last := used(); p != 1 || last != 124+64 {
		t.Fatalf("%d pages (last %d long) after two heaps of k, want 1 (188)", p, last)
	}
	// Page 0 takes 63 blocks of k (the last 4 entries fit none), page 1
	// 64: heap 127 opens page 2.
	i := 2
	for len(hs.pages) < 3 {
		want[i] = fillHeap(hs, i, k)
		i++
	}
	if i != 128 || hs.held != i*k {
		t.Fatalf("page 2 opened by heap %d, held %d; want heap 127, %d", i-1, hs.held, 128*k)
	}
	firstPage, secondPage := &hs.pages[0][0], &hs.pages[1][0]
	// Heaps 1..126 lie on pages 0 and 1.
	released := map[heapSpan]bool{}
	for j := 1; j < i-1; j++ {
		h := hs.heaps[j]
		h.n = 0
		released[h] = true
	}
	hs.release(1, i-1)
	if hs.held != 2*k || len(hs.freeBlocks(class(k))) != i-2 {
		t.Fatalf("held %d, %d free blocks of k after releasing %d heaps; want %d, %d", hs.held, len(hs.freeBlocks(class(k))), i-2, 2*k, i-2)
	}
	pages, last := used()
	for j := i; j < 2*i-2; j++ {
		want[j] = fillHeap(hs, j, k)
		h := hs.heaps[j]
		h.n = 0
		if !released[h] {
			t.Fatalf("heap %d took block %+v, not a released one", j, h)
		}
		delete(released, h)
	}
	if p, l := used(); p != pages || l != last || hs.held != i*k {
		t.Fatalf("%d pages (last %d long), held %d after refilling; want %d (%d), %d", p, l, hs.held, pages, last, i*k)
	}
	// A heap of another class does not take a block of k.
	fillHeap(hs, 2*i-2, 5)
	if h := hs.heaps[2*i-2]; h.n != 5 || released[heapSpan{page: h.page, off: h.off}] {
		t.Fatalf("a heap of 5 took block %+v", h)
	}
	if &hs.pages[0][0] != firstPage || &hs.pages[1][0] != secondPage {
		t.Error("a full page moved")
	}
	for _, j := range []int{0, i - 1, i, 2*i - 3} {
		if got := hs.items(j); !reflect.DeepEqual(got, want[j]) {
			t.Errorf("heap %d retains %v, want %v", j, got, want[j])
		}
	}
	for j := 1; j < i-1; j++ {
		if hs.size(j) != 0 {
			t.Errorf("released heap %d still reports %d paths", j, hs.size(j))
		}
	}
}

// TestPathHeapsBlockSizes: the smallest k, and a k that no default page
// can hold, whose top block fills a page of its own.
func TestPathHeapsBlockSizes(t *testing.T) {
	one := newPathHeaps(&slab{}, 1, 2)
	for peer, w := range map[int64]float64{2: 0.25, 3: 0.75, 4: 0.5} {
		one.consider(1, 1, bare(peer), bareFP(peer), w, 1)
	}
	if got, want := one.items(1), []topk.Path{{Nodes: []int64{3, 1}, Length: 1, Weight: 0.75}}; !reflect.DeepEqual(got, want) || one.held != 1 {
		t.Errorf("k=1 retains %v (held %d), want %v (held 1)", got, one.held, want)
	}
	if len(one.pages) != 1 || len(one.pages[0]) != 1 {
		t.Errorf("k=1: a heap of one path takes %d entries, want 1", len(one.pages[0]))
	}

	const k = heapPageEnts + 1
	big := newPathHeaps(&slab{}, k, 2)
	for peer := int64(0); peer < k; peer++ {
		big.consider(0, 7, bare(peer), bareFP(peer), 1+float64(peer), 1)
	}
	big.consider(1, 8, bare(0), bareFP(0), 0.5, 1)
	if h := big.heaps[0]; h.off != 0 || len(big.pages[h.page]) != k {
		t.Fatalf("k=%d: the full heap's block starts at %d of a page of %d entries, want a page of its own", k, h.off, len(big.pages[h.page]))
	}
	if h := big.heaps[1]; h.page != 0 || big.pageLen() != k {
		t.Fatalf("k=%d: a one-path heap took a block on page %d (page length %d), want a recycled one on page 0", k, h.page, big.pageLen())
	}
	big.consider(0, 7, bare(k), bareFP(k), 0.5, 1) // below the floor of a full heap
	big.consider(0, 7, bare(k+1), bareFP(k+1), 1.5, 1)
	if root := big.at(0, 0); big.size(0) != k || big.held != k+1 || root.weight != 1.5 {
		t.Errorf("k=%d: size %d, held %d, floor %v; want %d, %d, 1.5", k, big.size(0), big.held, root.weight, k, k+1)
	}
}

// TestPathHeapsGrowMatchesTopK: a heap that grows through every class
// up to k, with weight ties and rediscoveries, retains what topk.K
// retains when fed the same offers, after each one.
func TestPathHeapsGrowMatchesTopK(t *testing.T) {
	const k = 100 // blocks of 4, 8, 16, 32, 64 and 100 entries
	rng := rand.New(rand.NewSource(1))
	hs := newPathHeaps(&slab{}, k, 1)
	ref := topk.NewK(k)
	for step := range 600 {
		peer := int64(rng.Intn(300))
		w := float64(rng.Intn(8)) / 4
		hs.consider(0, 1, bare(peer), bareFP(peer), w, 1)
		ref.Consider(topk.Path{Nodes: []int64{peer, 1}, Length: 1, Weight: w})
		if got, want := hs.items(0), ref.Items(); !reflect.DeepEqual(got, want) || hs.held != len(want) {
			t.Fatalf("step %d: retains %v (held %d), topk.K %v", step, got, hs.held, want)
		}
	}
	if hs.size(0) != k {
		t.Fatalf("heap holds %d paths after 600 offers, want %d", hs.size(0), k)
	}
}

// FuzzPathHeapsMatchTopK drives a few heaps with offers and releases
// and holds each, after every step, to a topk.K fed the same offers
// since its last release; held must be the sum of the heaps' sizes.
// Weights come from four values and peers from sixteen, so ties and
// rediscoveries are common; a link is a bare node or a two-node chain.
// The first byte picks k — 1 to 64, or one above a page — and the chain
// direction and slot reuse; each later byte pair is one step.
func FuzzPathHeapsMatchTopK(f *testing.F) {
	f.Add([]byte{3, 0x10, 0x21, 0x32, 0x43, 0x54, 0x07, 0x65})
	f.Add([]byte{0x40 | 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add([]byte{0x80 | 63, 0xff, 0xfe, 0xfd, 0xfc, 0x7b, 0x7a, 0x79, 0x78, 0x37, 0x36, 0x35, 0x34, 0x07, 0x33})
	f.Add([]byte{0xc0 | 1, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const heaps = 3
		k := int(data[0]&63) + 1
		if k == 64 {
			k = heapPageEnts + 1
		}
		hs := newPathHeaps(&slab{}, k, heaps)
		hs.prepended = data[0]&0x40 != 0
		hs.reuse = data[0]&0x80 != 0
		var refs [heaps]*topk.K
		for i := range refs {
			refs[i] = topk.NewK(k)
		}
		for step, b := range data[1:] {
			i := int(b>>3) % heaps
			if b&7 == 7 {
				hs.release(i, i+1)
				refs[i] = topk.NewK(k)
			} else {
				peer, w := int64(b>>4), float64(b&3)/4
				node := int64(100 + i)
				link, fp := bare(peer), bareFP(peer)
				nodes := []int64{peer, node}
				if b&4 != 0 {
					link, fp = chain(hs, peer+16, peer)
					nodes = []int64{peer + 16, peer, node}
				}
				if hs.prepended {
					slices.Reverse(nodes)
				}
				hs.consider(i, node, link, fp, w, len(nodes)-1)
				refs[i].Consider(topk.Path{Nodes: nodes, Length: len(nodes) - 1, Weight: w})
			}
			held := 0
			for j := range heaps {
				if got, want := hs.items(j), refs[j].Items(); !reflect.DeepEqual(got, want) {
					t.Fatalf("k %d, step %d: heap %d retains %v, topk.K %v", k, step, j, got, want)
				}
				held += hs.size(j)
			}
			if hs.held != held {
				t.Fatalf("k %d, step %d: held %d, heaps hold %d", k, step, hs.held, held)
			}
		}
	})
}
