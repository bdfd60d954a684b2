package core

import (
	"sync"

	"repro/internal/clustergraph"
)

// workspace is the memory a BFS or DFS solve works in: the slab, the
// per-node heaps and the scratch each run sizes by the graph. A solve
// takes the package's one spare workspace (takeWorkspace), resets each
// part it uses to exactly the state a fresh one would have, so that
// only capacities carry over from the solves before it, and gives it
// back (release) once its answer is built, a failed or cancelled solve
// too. The spare lives from one solve to the next, so a process holds
// at most one workspace, sized by the largest solve it has run, between
// solves. A solve that finds no spare, because another solve holds it,
// makes its own.
//
// Nothing in a workspace points outside it once it is released: it
// holds no graph, context or answer. TA keeps its own state.
type workspace struct {
	// slab holds the paths of heaps and top.
	slab slab
	// heaps are the per-node heaps: BFS's h^x, DFS's bestpaths.
	heaps pathHeaps
	// top is BFS's global heap H.
	top pathHeaps

	// The suffix bound's scratch for seeding its floor.
	floors []float64

	// BFS: the slot table and an interval's candidates.
	slots nodeSlots
	cand  []int64

	// DFS: the visited flags, maxweight, the virtual source's children,
	// the stack and the scratch for global offers.
	visited, everPushed []bool
	maxweight           []float64
	source              []clustergraph.Half
	stack               []dfsFrame
	nodes               []int64
}

// spare is the workspace the last solve gave back, if no solve has
// taken it since.
var spare struct {
	mu sync.Mutex
	w  *workspace
}

// takeWorkspace returns the spare workspace, or a new one when there is
// none, and leaves no spare behind.
func takeWorkspace() *workspace {
	spare.mu.Lock()
	w := spare.w
	spare.w = nil
	spare.mu.Unlock()
	if w == nil {
		w = new(workspace)
	}
	return w
}

// release drops w's references into the graph and makes w the spare.
func (w *workspace) release() {
	clear(w.stack[:cap(w.stack)])
	w.stack = w.stack[:0]
	spare.mu.Lock()
	spare.w = w
	spare.mu.Unlock()
}

// seeds returns the scratch in which the suffix bound seeds its floor
// for a top-k of size k.
func (w *workspace) seeds(k int) []float64 {
	if cap(w.floors) < k {
		w.floors = make([]float64, 0, k)
	}
	return w.floors
}

// zeroed returns s resized to n zero elements, reusing its array when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if n > cap(s) {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
