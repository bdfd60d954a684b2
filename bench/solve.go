package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/clustergraph"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/topk"
)

// solve_paper: Section 5's synthetic methodology, straight into
// core.Solve with Parallelism 1. The graph instances are frozen (their
// generator seed is a constant, as the paper's grid points are fixed
// graphs): DFS pruning, TA early termination and normalized state size
// are chaotic in the instance — across eight generator seeds DFS
// allocates 68k..359k objects on the same (m,n,d,g) — so a graph drawn
// from --seed would move every metric by more than any bound. --seed
// draws the order of the operations inside each segment.
const solveGraphSeed = 2007

// solveClass is one (graph, request) pair of the mix. perSeg sets the
// mix so that the median operation is a TA solve and the 95th
// percentile a normalized solve, inside a class rather than on the
// boundary between two.
type solveClass struct {
	name   string
	cfg    synth.Config
	req    core.Request
	perSeg int
}

func solveClasses(quick bool) []solveClass {
	scale := func(n int) int {
		if quick {
			return max(n/10, 8)
		}
		return n
	}
	k := 5
	return []solveClass{
		{"dfs", synth.Config{M: 6, N: scale(400), D: 5, G: 1}, core.Request{Algorithm: "dfs", K: k, L: core.FullPaths}, 5},
		{"ta", synth.Config{M: 6, N: scale(300), D: 5, G: 0}, core.Request{Algorithm: "ta", K: k, L: core.FullPaths}, 4},
		{"bfs_full", synth.Config{M: 10, N: scale(1000), D: 5, G: 1}, core.Request{Algorithm: "bfs", K: k, L: core.FullPaths}, 1},
		{"bfs_sub", synth.Config{M: 10, N: scale(1000), D: 5, G: 1}, core.Request{Algorithm: "bfs", K: k, L: 3}, 1},
		{"normalized", synth.Config{M: 8, N: scale(80), D: 3, G: 0}, core.Request{Algorithm: "normalized", K: k, LMin: 3}, 1},
	}
}

// solveSegNominalMs is one segment's time on the reference machine.
const solveSegNominalMs = 1040

// solveMix is one segment's operations before shuffling: indexes into
// solveClasses, perSeg of each.
func solveMix(classes []solveClass) []int {
	var mix []int
	for ci, c := range classes {
		for i := 0; i < c.perSeg; i++ {
			mix = append(mix, ci)
		}
	}
	return mix
}

// resultDigest fingerprints what a solve returned: the top-k (score,
// node sequence) list and the work counters, which repeat exactly for
// a sequential solve.
func resultDigest(res *core.Result) uint64 {
	return digest(pathsString(res.Paths), fmt.Sprint(res.Stats))
}

func pathsString(paths []topk.Path) string {
	var sb strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&sb, "%.12g:%v;", p.Weight, p.Nodes)
	}
	return sb.String()
}

type solveState struct {
	classes []solveClass
	graphs  []*clustergraph.Graph
	want    []uint64 // first result digest per class
	stats   []core.Stats
}

// solveSetup generates the graphs and runs the warm-up pass: every
// class once (its digest becomes the reference every repetition must
// equal) and the bfs ≡ dfs ≡ ta check on the shared full-path spec.
func solveSetup(rc *runCtx, chk *checker) (*solveState, error) {
	ctx := context.Background()
	st := &solveState{classes: solveClasses(rc.quick)}
	byCfg := map[synth.Config]*clustergraph.Graph{}
	for _, c := range st.classes {
		cfg := c.cfg
		cfg.Seed = solveGraphSeed
		g, ok := byCfg[cfg]
		if !ok {
			var err error
			if g, err = synth.Generate(cfg); err != nil {
				return nil, err
			}
			byCfg[cfg] = g
		}
		st.graphs = append(st.graphs, g)
		res, err := core.Solve(ctx, g, c.req)
		if err != nil {
			return nil, fmt.Errorf("solve_paper warm-up %s: %w", c.name, err)
		}
		if len(res.Paths) != c.req.K {
			chk.failf("%s: %d paths, want %d", c.name, len(res.Paths), c.req.K)
		}
		st.want = append(st.want, resultDigest(res))
		st.stats = append(st.stats, res.Stats)
	}
	// The TA graph (gap 0, full paths) is the spec all three Problem-1
	// solvers accept; their top-k must be the same list.
	ta := st.graphs[1]
	var ref string
	for _, algo := range []string{"bfs", "dfs", "ta"} {
		res, err := core.Solve(ctx, ta, core.Request{Algorithm: algo, K: 5, L: core.FullPaths})
		if err != nil {
			return nil, fmt.Errorf("solve_paper equivalence %s: %w", algo, err)
		}
		if got := pathsString(res.Paths); ref == "" {
			ref = got
		} else if got != ref {
			chk.failf("%s disagrees with bfs on the shared full-path spec", algo)
		}
	}
	return st, nil
}

func runSolvePaper(rc *runCtx) (*result, error) {
	ctx := context.Background()
	chk := &checker{}
	var st *solveState
	if err := rc.setUp(func() (err error) {
		st, err = solveSetup(rc, chk)
		return err
	}, nil); err != nil {
		return nil, err
	}
	list := shuffledSegments(rc.seed, rc.segments(solveSegNominalMs), solveMix(st.classes))

	// Per-class accounting for the traced run.
	nc := len(st.classes)
	classMs := make([][]float64, nc)
	classAllocs := make([]float64, nc)
	classRuns := make([]float64, nc)

	var segs []segmentFunc
	for si, seg := range list {
		traced := rc.trace && si%2 == 1
		segs = append(segs, func(log *opLog) {
			rec := rc.rec
			if !traced {
				rec = nil
			}
			for _, ci := range seg {
				c := st.classes[ci]
				rec.beginOp()
				endOp := rec.begin("harness.op")
				var h0 heapCounters
				if traced {
					h0 = selfHeap()
				}
				endSolve := rec.begin("core." + c.name)
				t0 := time.Now()
				res, err := core.Solve(ctx, st.graphs[ci], c.req)
				d := msSince(t0)
				endSolve()
				if traced {
					classAllocs[ci] += float64(selfHeap().mallocs - h0.mallocs)
					classRuns[ci]++
					classMs[ci] = append(classMs[ci], d)
				}
				if err != nil || resultDigest(res) != st.want[ci] {
					chk.failf("%s: repetition differs from the first (err=%v)", c.name, err)
				}
				endOp()
				log.add(d)
			}
		})
	}
	m, err := measure(rc, selfSUT{}, segs)
	if err != nil {
		return nil, err
	}
	r := &result{m: m, chk: chk, opDigest: digest(fmt.Sprint(list))}
	if rc.trace {
		r.layers = map[string]float64{}
		for ci, c := range st.classes {
			r.layers["core."+c.name+"_ms"] = median(classMs[ci])
			r.layers["core."+c.name+"_allocs"] = classAllocs[ci] / classRuns[ci]
		}
		// The two bfs classes share one allocation metric in the issue's
		// list; report the sub-path one (the generic, heavier path).
		r.layers["core.bfs_allocs"] = r.layers["core.bfs_sub_allocs"]
		delete(r.layers, "core.bfs_sub_allocs")
		delete(r.layers, "core.bfs_full_allocs")
		bfs, dfs, ta, norm := st.stats[3], st.stats[0], st.stats[1], st.stats[4]
		r.layers["core.bfs_node_reads"] = float64(bfs.NodeReads)
		r.layers["core.bfs_edge_reads"] = float64(bfs.EdgeReads)
		r.layers["core.bfs_heap_considers"] = float64(bfs.HeapConsiders)
		r.layers["core.dfs_pruned_ratio"] = float64(dfs.Pruned) / float64(dfs.NodeReads)
		r.layers["core.dfs_repushes"] = float64(dfs.Repushes)
		r.layers["core.ta_random_seeks"] = float64(ta.RandomSeeks)
		r.layers["core.normalized_peak_state_paths"] = float64(norm.PeakStatePaths)
		r.traceOverhead()
	}
	return r, nil
}
