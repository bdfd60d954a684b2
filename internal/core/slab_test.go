package core

import (
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

// TestPathHeapsRecycleAcrossPages: released blocks are handed out again
// before a new page is opened, wherever in the store they lie, a full
// page is never moved, and held counts exactly the retained paths.
func TestPathHeapsRecycleAcrossPages(t *testing.T) {
	const k = heapPageEnts / 2 // two blocks to a page
	hs := newPathHeaps(&slab{}, k, 12)
	fill := func(i int) {
		hs.consider(i, int64(i), bare(100), bareFP(100), 0.5, 1)
		hs.consider(i, int64(i), bare(101), bareFP(101), 0.25, 1)
	}
	check := func(i int) {
		t.Helper()
		want := []topk.Path{
			{Nodes: []int64{100, int64(i)}, Length: 1, Weight: 0.5},
			{Nodes: []int64{101, int64(i)}, Length: 1, Weight: 0.25},
		}
		if got := hs.items(i); !reflect.DeepEqual(got, want) {
			t.Errorf("heap %d retains %v, want %v", i, got, want)
		}
	}
	for i := 0; i < 5; i++ {
		fill(i)
	}
	if len(hs.pages) != 3 || hs.held != 10 {
		t.Fatalf("%d pages, held %d after five heaps, want 3 and 10", len(hs.pages), hs.held)
	}
	firstPage := &hs.pages[0][0]
	hs.release(1, 4) // heap 1 is on page 0, heaps 2 and 3 on page 1
	if hs.held != 4 || len(hs.free) != 3 {
		t.Fatalf("held %d, %d free blocks after releasing three heaps, want 4 and 3", hs.held, len(hs.free))
	}
	for i := 5; i < 8; i++ {
		fill(i)
	}
	if len(hs.pages) != 3 || len(hs.pages[2]) != k || len(hs.free) != 0 || hs.held != 10 {
		t.Fatalf("%d pages (last %d long), %d free, held %d after refilling, want 3 (%d), 0, 10",
			len(hs.pages), len(hs.pages[2]), len(hs.free), hs.held, k)
	}
	blocks := map[heapSpan]int{}
	for _, i := range []int{0, 4, 5, 6, 7} {
		h := hs.heaps[i]
		h.n = 0
		if other, dup := blocks[h]; dup {
			t.Errorf("heaps %d and %d share block %+v", other, i, h)
		}
		blocks[h] = i
	}
	fill(8) // second half of page 2
	fill(9) // page 3
	if len(hs.pages) != 4 || hs.held != 14 {
		t.Fatalf("%d pages, held %d after two more heaps, want 4 and 14", len(hs.pages), hs.held)
	}
	if &hs.pages[0][0] != firstPage {
		t.Error("page 0 moved after it was full")
	}
	for _, i := range []int{0, 4, 5, 6, 7, 8, 9} {
		check(i)
	}
	for i := 1; i < 4; i++ {
		if hs.size(i) != 0 {
			t.Errorf("released heap %d still reports %d paths", i, hs.size(i))
		}
	}
}

// TestPathHeapsBlockSizes: the smallest k, and a k that no default page
// can hold, where every block is a page of its own.
func TestPathHeapsBlockSizes(t *testing.T) {
	one := newPathHeaps(&slab{}, 1, 2)
	for peer, w := range map[int64]float64{2: 0.25, 3: 0.75, 4: 0.5} {
		one.consider(1, 1, bare(peer), bareFP(peer), w, 1)
	}
	if got, want := one.items(1), []topk.Path{{Nodes: []int64{3, 1}, Length: 1, Weight: 0.75}}; !reflect.DeepEqual(got, want) || one.held != 1 {
		t.Errorf("k=1 retains %v (held %d), want %v (held 1)", got, one.held, want)
	}

	const k = heapPageEnts + 1
	big := newPathHeaps(&slab{}, k, 2)
	for peer := int64(0); peer < k; peer++ {
		big.consider(0, 7, bare(peer), bareFP(peer), 1+float64(peer), 1)
	}
	big.consider(1, 8, bare(0), bareFP(0), 0.5, 1)
	if len(big.pages) != 2 || len(big.pages[0]) != k || len(big.pages[1]) != k {
		t.Fatalf("k=%d: %d pages, want two of one block each", k, len(big.pages))
	}
	big.consider(0, 7, bare(k), bareFP(k), 0.5, 1) // below the floor of a full heap
	big.consider(0, 7, bare(k+1), bareFP(k+1), 1.5, 1)
	if root := big.at(0, 0); big.size(0) != k || big.held != k+1 || root.weight != 1.5 {
		t.Errorf("k=%d: size %d, held %d, floor %v; want %d, %d, 1.5", k, big.size(0), big.held, root.weight, k, k+1)
	}
}
