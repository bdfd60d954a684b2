package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/diskstore"
	"repro/internal/topk"
)

// Node state persisted to secondary storage. The BFS algorithm saves
// each node's heaps after processing its interval (Algorithm 2 line
// 17); the DFS algorithm reads a node's state when it is pushed and
// writes it back when popped (Algorithm 3 lines 8, 20, 24). The format
// is a compact little-endian encoding:
//
//	u32 pathCount | paths…
//	path: u32 nodeCount | i64 nodes… | u32 length | f64 weight
//
// Heap groupings (which h^x a path belongs to) are recoverable from the
// path lengths, so they are not stored separately.

func encodePaths(paths []topk.Path) []byte {
	size := 4
	for _, p := range paths {
		size += 4 + 8*len(p.Nodes) + 4 + 8
	}
	buf := make([]byte, 0, size)
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		buf = append(buf, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:8], v)
		buf = append(buf, tmp[:8]...)
	}
	put32(uint32(len(paths)))
	for _, p := range paths {
		put32(uint32(len(p.Nodes)))
		for _, n := range p.Nodes {
			put64(uint64(n))
		}
		put32(uint32(p.Length))
		put64(math.Float64bits(p.Weight))
	}
	return buf
}

func decodePaths(b []byte) ([]topk.Path, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: path record too short (%d bytes)", len(b))
	}
	off := 0
	get32 := func() (uint32, error) {
		if off+4 > len(b) {
			return 0, fmt.Errorf("core: truncated path record at offset %d", off)
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, nil
	}
	get64 := func() (uint64, error) {
		if off+8 > len(b) {
			return 0, fmt.Errorf("core: truncated path record at offset %d", off)
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, nil
	}
	n, err := get32()
	if err != nil {
		return nil, err
	}
	paths := make([]topk.Path, 0, n)
	for i := uint32(0); i < n; i++ {
		nc, err := get32()
		if err != nil {
			return nil, err
		}
		nodes := make([]int64, nc)
		for j := range nodes {
			v, err := get64()
			if err != nil {
				return nil, err
			}
			nodes[j] = int64(v)
		}
		length, err := get32()
		if err != nil {
			return nil, err
		}
		wbits, err := get64()
		if err != nil {
			return nil, err
		}
		paths = append(paths, topk.Path{Nodes: nodes, Length: int(length), Weight: math.Float64frombits(wbits)})
	}
	if off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes in path record", len(b)-off)
	}
	return paths, nil
}

// storeBackend adapts a diskstore.Store to the algorithms' node-state
// persistence. A nil *storeBackend disables persistence.
type storeBackend struct{ st *diskstore.Store }

func newStoreBackend(st *diskstore.Store) *storeBackend {
	if st == nil {
		return nil
	}
	return &storeBackend{st: st}
}

func (s *storeBackend) save(id int64, b []byte) error {
	if err := s.st.Put(id, b); err != nil {
		return fmt.Errorf("core: save node %d state: %w", id, err)
	}
	return nil
}

func (s *storeBackend) load(id int64) ([]byte, bool, error) {
	b, err := s.st.Get(id)
	if errors.Is(err, diskstore.ErrNotFound) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("core: load node %d state: %w", id, err)
	}
	return b, true, nil
}

// encodeState serializes the state Algorithm 3 keeps per node:
//
//	u8 flags (bit0 visited) | u32 mwCount | (u32 x, f64 w)* | paths
//
// with the known maxweight entries in ascending x and the bestpaths
// heaps as paths.
func (r *dfsRun) encodeState(id int64) []byte {
	var buf []byte
	var flags byte
	if r.visited[id] {
		flags |= 1
	}
	buf = append(buf, flags)
	mw := r.maxweights(id)
	known := 0
	for _, w := range mw {
		if !math.IsInf(w, -1) {
			known++
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(known))
	for x, w := range mw {
		if !math.IsInf(w, -1) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w))
		}
	}
	return append(buf, encodePaths(r.best.paths(r.bestHeap(id, 1), r.bestHeap(id, r.l)+1))...)
}

// decodeState reverses encodeState into node id's (non-resident)
// state. Decoded paths are interned back into the slab, so a reloaded
// node is indistinguishable from one that never left memory; only the
// head record of an interned chain carries a weight and a length, which
// is all a heap entry is ever asked for.
func (r *dfsRun) decodeState(id int64, b []byte) error {
	if len(b) < 5 {
		return fmt.Errorf("core: dfs state record too short (%d bytes)", len(b))
	}
	r.resetState(id)
	r.visited[id] = b[0]&1 != 0
	mw := r.maxweights(id)
	off := 1
	mwCount := binary.LittleEndian.Uint32(b[off:])
	off += 4
	for i := uint32(0); i < mwCount; i++ {
		if off+12 > len(b) {
			return fmt.Errorf("core: truncated dfs state at offset %d", off)
		}
		x := int(binary.LittleEndian.Uint32(b[off:]))
		if x >= len(mw) {
			return fmt.Errorf("core: dfs state has maxweight for prefix length %d, query length is %d", x, r.l)
		}
		mw[x] = math.Float64frombits(binary.LittleEndian.Uint64(b[off+4:]))
		off += 12
	}
	paths, err := decodePaths(b[off:])
	if err != nil {
		return err
	}
	for _, p := range paths {
		if len(p.Nodes) < 2 || p.Nodes[0] != id || p.Length < 1 || p.Length > r.l {
			return fmt.Errorf("core: dfs state of node %d holds foreign path %v", id, p)
		}
		last := p.Nodes[len(p.Nodes)-1]
		link, fp := bare(last), bareFP(last)
		for j := len(p.Nodes) - 2; j > 0; j-- {
			link, fp = r.slab.add(r.slab.grow(p.Nodes[j], link, 0, 0)), mix(fp, p.Nodes[j])
		}
		r.best.consider(r.bestHeap(id, p.Length), id, link, fp, p.Weight, p.Length)
	}
	return nil
}
