package core

import (
	"reflect"
	"testing"

	"repro/internal/synth"
	"repro/internal/topk"
)

// The golden table pins what each solver returns AND how much work it
// does, as literals: Result.Paths and every Stats counter for three
// fixed synthetic graphs (gaps 0, 1 and 2) × {bfs sub-path, bfs
// full-path, dfs sub-path, dfs full-path, ta, normalized}. The equivalence suites say the
// solvers agree with each other; this says a refactor did not change a
// solver's answer, tie order or counted work. A deliberate change to an
// algorithm's work re-records the affected rows (the failure message
// prints them in paste-ready form) and says why in the commit.

var goldenGraphs = []struct {
	name string
	cfg  synth.Config
}{
	{"gap0", synth.Config{Seed: 11, M: 5, N: 6, D: 2, G: 0}},
	{"gap2", synth.Config{Seed: 12, M: 6, N: 5, D: 2, G: 2}},
	{"gap1", synth.Config{Seed: 13, M: 5, N: 6, D: 2, G: 1}},
}

var goldenRequests = []struct {
	name string
	req  Request
}{
	{"bfs-sub", Request{Algorithm: "bfs", K: 3, L: 2}},
	{"bfs-full", Request{Algorithm: "bfs", K: 3, L: FullPaths}},
	{"dfs", Request{Algorithm: "dfs", K: 3, L: 2}},
	{"dfs-full", Request{Algorithm: "dfs", K: 3, L: FullPaths}},
	{"ta", Request{Algorithm: "ta", K: 3, L: FullPaths}},
	{"normalized", Request{Algorithm: "normalized", K: 3, LMin: 2}},
}

type goldenRow struct {
	paths []topk.Path
	stats Stats
}

var golden = map[string]goldenRow{
	"gap0/bfs-sub": {
		paths: []topk.Path{{Nodes: []int64{3, 10, 16}, Length: 2, Weight: 1.8733328574192272}, {Nodes: []int64{1, 8, 17}, Length: 2, Weight: 1.8282275434101884}, {Nodes: []int64{10, 16, 18}, Length: 2, Weight: 1.6001354175264262}},
		stats: Stats{NodeReads: 24, NodeWrites: 30, EdgeReads: 14, HeapConsiders: 9, Pruned: 16, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 3},
	},
	"gap0/bfs-full": {
		paths: []topk.Path{{Nodes: []int64{3, 10, 16, 18, 24}, Length: 4, Weight: 3.276619336639582}, {Nodes: []int64{3, 10, 16, 19, 26}, Length: 4, Weight: 3.202462973694655}, {Nodes: []int64{3, 10, 16, 23, 24}, Length: 4, Weight: 3.031397760786878}},
		stats: Stats{NodeReads: 24, NodeWrites: 30, EdgeReads: 31, HeapConsiders: 23, Pruned: 19, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 6},
	},
	"gap0/dfs": {
		paths: []topk.Path{{Nodes: []int64{3, 10, 16}, Length: 2, Weight: 1.8733328574192272}, {Nodes: []int64{1, 8, 17}, Length: 2, Weight: 1.8282275434101884}, {Nodes: []int64{10, 16, 18}, Length: 2, Weight: 1.6001354175264262}},
		stats: Stats{NodeReads: 65, NodeWrites: 65, EdgeReads: 65, HeapConsiders: 21, Pruned: 47, Repushes: 35, RandomSeeks: 0, PeakStatePaths: 4},
	},
	"gap0/dfs-full": {
		paths: []topk.Path{{Nodes: []int64{3, 10, 16, 18, 24}, Length: 4, Weight: 3.276619336639582}, {Nodes: []int64{3, 10, 16, 19, 26}, Length: 4, Weight: 3.202462973694655}, {Nodes: []int64{3, 10, 16, 23, 24}, Length: 4, Weight: 3.031397760786878}},
		stats: Stats{NodeReads: 34, NodeWrites: 27, EdgeReads: 34, HeapConsiders: 38, Pruned: 10, Repushes: 2, RandomSeeks: 0, PeakStatePaths: 6},
	},
	"gap0/ta": {
		paths: []topk.Path{{Nodes: []int64{3, 10, 16, 18, 24}, Length: 4, Weight: 3.276619336639582}, {Nodes: []int64{3, 10, 16, 19, 26}, Length: 4, Weight: 3.202462973694655}, {Nodes: []int64{3, 10, 16, 23, 24}, Length: 4, Weight: 3.031397760786878}},
		stats: Stats{NodeReads: 0, NodeWrites: 0, EdgeReads: 8, HeapConsiders: 5, Pruned: 11, Repushes: 0, RandomSeeks: 5, PeakStatePaths: 0},
	},
	"gap0/normalized": {
		paths: []topk.Path{{Nodes: []int64{3, 10, 16}, Length: 2, Weight: 0.9366664287096136}, {Nodes: []int64{1, 8, 17}, Length: 2, Weight: 0.9141137717050942}, {Nodes: []int64{3, 10, 16, 18}, Length: 3, Weight: 0.8250811420644864}},
		stats: Stats{NodeReads: 72, NodeWrites: 90, EdgeReads: 25, HeapConsiders: 15, Pruned: 34, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 3},
	},
	"gap2/bfs-sub": {
		paths: []topk.Path{{Nodes: []int64{15, 24, 25}, Length: 2, Weight: 1.9668916114544919}, {Nodes: []int64{15, 24, 26}, Length: 2, Weight: 1.890787416577656}, {Nodes: []int64{1, 7, 11}, Length: 2, Weight: 1.8688345463479306}},
		stats: Stats{NodeReads: 60, NodeWrites: 30, EdgeReads: 62, HeapConsiders: 11, Pruned: 44, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 2},
	},
	"gap2/bfs-full": {
		paths: []topk.Path{{Nodes: []int64{0, 8, 10, 18, 21, 25}, Length: 5, Weight: 4.179336812056002}, {Nodes: []int64{1, 7, 11, 19, 21, 25}, Length: 5, Weight: 4.119532793072843}, {Nodes: []int64{1, 5, 14, 18, 21, 25}, Length: 5, Weight: 4.110134679322221}},
		stats: Stats{NodeReads: 60, NodeWrites: 30, EdgeReads: 89, HeapConsiders: 22, Pruned: 102, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 4},
	},
	"gap2/dfs": {
		paths: []topk.Path{{Nodes: []int64{15, 24, 25}, Length: 2, Weight: 1.9668916114544919}, {Nodes: []int64{15, 24, 26}, Length: 2, Weight: 1.890787416577656}, {Nodes: []int64{1, 7, 11}, Length: 2, Weight: 1.8688345463479306}},
		stats: Stats{NodeReads: 144, NodeWrites: 119, EdgeReads: 144, HeapConsiders: 60, Pruned: 99, Repushes: 89, RandomSeeks: 0, PeakStatePaths: 8},
	},
	"gap2/dfs-full": {
		paths: []topk.Path{{Nodes: []int64{0, 8, 10, 18, 21, 25}, Length: 5, Weight: 4.179336812056002}, {Nodes: []int64{1, 7, 11, 19, 21, 25}, Length: 5, Weight: 4.1195327930728425}, {Nodes: []int64{1, 5, 14, 18, 21, 25}, Length: 5, Weight: 4.110134679322221}},
		stats: Stats{NodeReads: 297, NodeWrites: 271, EdgeReads: 297, HeapConsiders: 125, Pruned: 211, Repushes: 243, RandomSeeks: 0, PeakStatePaths: 10},
	},
	"gap2/ta": {
		paths: []topk.Path{{Nodes: []int64{0, 8, 10, 18, 21, 25}, Length: 5, Weight: 4.179336812056002}, {Nodes: []int64{1, 7, 11, 19, 21, 25}, Length: 5, Weight: 4.1195327930728425}, {Nodes: []int64{1, 5, 14, 18, 21, 25}, Length: 5, Weight: 4.110134679322221}},
		stats: Stats{NodeReads: 0, NodeWrites: 0, EdgeReads: 108, HeapConsiders: 16, Pruned: 325, Repushes: 0, RandomSeeks: 55, PeakStatePaths: 0},
	},
	"gap2/normalized": {
		paths: []topk.Path{{Nodes: []int64{15, 24, 25}, Length: 2, Weight: 0.9834458057272459}, {Nodes: []int64{15, 24, 26}, Length: 2, Weight: 0.945393708288828}, {Nodes: []int64{1, 7, 11}, Length: 2, Weight: 0.9344172731739653}},
		stats: Stats{NodeReads: 240, NodeWrites: 120, EdgeReads: 62, HeapConsiders: 11, Pruned: 44, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 2},
	},
	"gap1/bfs-sub": {
		paths: []topk.Path{{Nodes: []int64{3, 11, 15}, Length: 2, Weight: 1.8701248559003314}, {Nodes: []int64{4, 6, 16}, Length: 2, Weight: 1.7467718477811967}, {Nodes: []int64{5, 8, 16}, Length: 2, Weight: 1.7423970354051643}},
		stats: Stats{NodeReads: 42, NodeWrites: 30, EdgeReads: 40, HeapConsiders: 9, Pruned: 43, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 3},
	},
	"gap1/bfs-full": {
		paths: []topk.Path{{Nodes: []int64{3, 11, 15, 21, 28}, Length: 4, Weight: 3.4034032490521255}, {Nodes: []int64{4, 7, 14, 21, 28}, Length: 4, Weight: 3.2757316800240472}, {Nodes: []int64{1, 11, 15, 21, 28}, Length: 4, Weight: 3.1580301646119198}},
		stats: Stats{NodeReads: 42, NodeWrites: 30, EdgeReads: 38, HeapConsiders: 15, Pruned: 36, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 3},
	},
	"gap1/dfs": {
		paths: []topk.Path{{Nodes: []int64{3, 11, 15}, Length: 2, Weight: 1.8701248559003314}, {Nodes: []int64{4, 6, 16}, Length: 2, Weight: 1.7467718477811967}, {Nodes: []int64{5, 8, 16}, Length: 2, Weight: 1.7423970354051643}},
		stats: Stats{NodeReads: 122, NodeWrites: 122, EdgeReads: 122, HeapConsiders: 21, Pruned: 102, Repushes: 92, RandomSeeks: 0, PeakStatePaths: 2},
	},
	"gap1/dfs-full": {
		paths: []topk.Path{{Nodes: []int64{3, 11, 15, 21, 28}, Length: 4, Weight: 3.4034032490521255}, {Nodes: []int64{4, 7, 14, 21, 28}, Length: 4, Weight: 3.2757316800240472}, {Nodes: []int64{1, 11, 15, 21, 28}, Length: 4, Weight: 3.1580301646119198}},
		stats: Stats{NodeReads: 57, NodeWrites: 54, EdgeReads: 57, HeapConsiders: 16, Pruned: 42, Repushes: 28, RandomSeeks: 0, PeakStatePaths: 2},
	},
	"gap1/ta": {
		paths: []topk.Path{{Nodes: []int64{3, 11, 15, 21, 28}, Length: 4, Weight: 3.4034032490521255}, {Nodes: []int64{4, 7, 14, 21, 28}, Length: 4, Weight: 3.2757316800240472}, {Nodes: []int64{1, 11, 15, 21, 28}, Length: 4, Weight: 3.1580301646119198}},
		stats: Stats{NodeReads: 0, NodeWrites: 0, EdgeReads: 49, HeapConsiders: 11, Pruned: 79, Repushes: 0, RandomSeeks: 23, PeakStatePaths: 0},
	},
	"gap1/normalized": {
		paths: []topk.Path{{Nodes: []int64{3, 11, 15}, Length: 2, Weight: 0.9350624279501657}, {Nodes: []int64{4, 6, 16}, Length: 2, Weight: 0.8733859238905983}, {Nodes: []int64{5, 8, 16}, Length: 2, Weight: 0.8711985177025822}},
		stats: Stats{NodeReads: 126, NodeWrites: 90, EdgeReads: 40, HeapConsiders: 9, Pruned: 43, Repushes: 0, RandomSeeks: 0, PeakStatePaths: 3},
	},
}

func TestGoldenPathsAndStats(t *testing.T) {
	for _, gg := range goldenGraphs {
		g, err := synth.Generate(gg.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, gr := range goldenRequests {
			name := gg.name + "/" + gr.name
			t.Run(name, func(t *testing.T) {
				got, err := solve(g, gr.req)
				if err != nil {
					t.Fatal(err)
				}
				want, ok := golden[name]
				if !ok || !reflect.DeepEqual(got.Paths, want.paths) || got.Stats != want.stats {
					t.Errorf("golden row drifted; solver now produces:\n%q: {\n\tpaths: %#v,\n\tstats: %#v,\n},",
						name, got.Paths, got.Stats)
				}
			})
		}
	}
}
