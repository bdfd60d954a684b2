package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	blogclusters "repro"
	"repro/internal/bicc"
	"repro/internal/cluster"
	"repro/internal/clustergraph"
	"repro/internal/cooccur"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/extsort"
	"repro/internal/index"
	"repro/internal/simjoin"
	"repro/internal/stats"
)

// build_batch: the paper's offline pipeline (Sections 3-4), one whole
// Engine session per operation. The corpora are frozen (generator seeds
// are constants): cluster and edge counts, and with them allocations,
// move 2-3% from one corpus seed to the next, more than the allocation
// bound. --seed draws the order of the corpora inside each segment.
//
// Each segment builds seven week-sized corpora and one of twice the
// daily volume, so the 95th percentile is a large build and not the
// noisiest small one.
const buildCorpusSeed = 2007

const (
	buildPostsRegular = 1500
	buildPostsLarge   = 3000
	// buildSegNominalMs is one segment's time on the reference machine.
	buildSegNominalMs = 1060
)

// Small budgets so the pair tables and the segment build spill sorted
// runs through extsort, as a corpus larger than memory would.
const (
	buildPairBudget  = 256 << 10
	buildSortBudget  = 64 << 10
	buildIndexBudget = 128 << 10
)

var buildGraphOptions = blogclusters.GraphOptions{Gap: 1, UseSimJoin: true}

// buildMix is the corpus index of each operation of a segment before
// shuffling: corpora 0-2 are regular, 3 is the large one.
var buildMix = []int{0, 1, 2, 0, 1, 2, 0, 3}

func buildCorpora(quick bool) ([]*corpus.Collection, error) {
	regular, large := buildPostsRegular, buildPostsLarge
	if quick {
		regular, large = 60, 120
	}
	var out []*corpus.Collection
	for i, posts := range []int{regular, regular, regular, large} {
		col, err := blogclusters.GenerateCorpus(blogclusters.NewsWeekCorpus(buildCorpusSeed+int64(i), posts))
		if err != nil {
			return nil, err
		}
		out = append(out, col)
	}
	return out, nil
}

// pipelineDigest fingerprints one pipeline output: clusters per
// interval, graph size and the top-k (score, node sequence) list.
func pipelineDigest(sets [][]cluster.Cluster, g *clustergraph.Graph, res *core.Result) uint64 {
	var sb strings.Builder
	for _, s := range sets {
		fmt.Fprint(&sb, len(s), ",")
	}
	fmt.Fprint(&sb, "|", g.NumNodes(), ",", g.NumEdges(), "|", pathsString(res.Paths))
	return digest(sb.String())
}

// buildEngineOp is the measured operation: one full session.
func buildEngineOp(ctx context.Context, col *corpus.Collection) (uint64, blogclusters.EngineStats, error) {
	var st blogclusters.EngineStats
	e, err := blogclusters.Open(ctx, blogclusters.FromCollection(col),
		blogclusters.WithIndexOptions(blogclusters.IndexOptions{Backend: "disk", SortMemoryBudget: buildIndexBudget}),
		blogclusters.WithClusterOptions(blogclusters.ClusterOptions{MemBudget: buildPairBudget, SortMemoryBudget: buildSortBudget}),
		blogclusters.WithGraphOptions(buildGraphOptions))
	if err != nil {
		return 0, st, err
	}
	defer e.Close()
	if _, err := e.Index(ctx); err != nil {
		return 0, st, err
	}
	sets, err := e.Clusters(ctx)
	if err != nil {
		return 0, st, err
	}
	g, err := e.Graph(ctx)
	if err != nil {
		return 0, st, err
	}
	res, err := e.StableClusters(ctx, "bfs", 5, 3)
	if err != nil {
		return 0, st, err
	}
	st = e.Stats()
	return pipelineDigest(sets, g, res), st, e.Close()
}

// buildLayers accumulates the stage timings of the traced operations.
type buildLayers struct {
	diskMs, cooccurMs, pruneMs, biccMs, graphMs, solveMs []float64
	pairs, clusters, edges, bytesPerPosting              []float64
}

// buildStagedOp is the traced operation: the same pipeline with the
// stage functions called one by one, a span around each, on the same
// corpus and options. Its digest must equal the Engine's.
func buildStagedOp(ctx context.Context, rc *runCtx, col *corpus.Collection, bl *buildLayers) (uint64, error) {
	rec := rc.rec
	dir, err := os.MkdirTemp("", "staged-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	end := rec.begin("index.build_disk")
	t0 := time.Now()
	seg := filepath.Join(dir, "base.seg")
	store, err := index.OpenStore(ctx, col, index.BackendDisk, seg, index.Config{SortMemoryBudget: buildIndexBudget})
	bl.diskMs = append(bl.diskMs, msSince(t0))
	end()
	if err != nil {
		return 0, err
	}
	if fi, err := os.Stat(seg); err == nil {
		postings := 0
		for _, iv := range col.Intervals {
			for _, d := range iv.Docs {
				postings += len(d.Keywords)
			}
		}
		bl.bytesPerPosting = append(bl.bytesPerPosting, float64(fi.Size())/float64(postings))
	}
	store.Close()

	sets := make([][]cluster.Cluster, len(col.Intervals))
	for i := range col.Intervals {
		end = rec.begin("cooccur.build")
		t0 = time.Now()
		kg, err := cooccur.BuildCtx(ctx, col, i, i, cooccur.BuildOptions{MemBudget: buildPairBudget, SortMemoryBudget: buildSortBudget})
		bl.cooccurMs = append(bl.cooccurMs, msSince(t0))
		end()
		if err != nil {
			return 0, err
		}
		bl.pairs = append(bl.pairs, float64(kg.NumEdges()))

		end = rec.begin("cooccur.prune")
		t0 = time.Now()
		kg.AnnotateStats()
		pruned := kg.Prune(stats.ChiSquared95, stats.DefaultRhoThreshold)
		bl.pruneMs = append(bl.pruneMs, msSince(t0))
		end()

		end = rec.begin("bicc.decompose")
		t0 = time.Now()
		bg := bicc.NewGraph(pruned.NumVertices())
		for _, e := range pruned.Edges {
			bg.AddEdge(e.U, e.V)
		}
		for _, comp := range bicc.Decompose(bg).Clusters(2) {
			kws := make([]string, len(comp))
			for j, v := range comp {
				kws[j] = pruned.Keywords[v]
			}
			sets[i] = append(sets[i], cluster.New(int64(len(sets[i])), i, kws))
		}
		bl.biccMs = append(bl.biccMs, msSince(t0))
		end()
		bl.clusters = append(bl.clusters, float64(len(sets[i])))
	}

	end = rec.begin("clustergraph.build")
	t0 = time.Now()
	g, err := clustergraph.FromClustersCtx(ctx, sets, clustergraph.FromClustersOptions{Gap: buildGraphOptions.Gap, UseSimJoin: true})
	bl.graphMs = append(bl.graphMs, msSince(t0))
	end()
	if err != nil {
		return 0, err
	}
	bl.edges = append(bl.edges, float64(g.NumEdges()))

	end = rec.begin("core.bfs_sub")
	t0 = time.Now()
	res, err := core.Solve(ctx, g, core.Request{Algorithm: "bfs", K: 5, L: 3})
	bl.solveMs = append(bl.solveMs, msSince(t0))
	end()
	if err != nil {
		return 0, err
	}
	return pipelineDigest(sets, g, res), nil
}

// buildProbes times the layers the Engine hides from outside — the
// resident index build, an external sort of one interval's pair stream
// under the workload's sort budget, and the similarity join between
// neighbouring intervals' clusters — on the workload's own data.
func buildProbes(ctx context.Context, col *corpus.Collection, layers map[string]float64) error {
	t0 := time.Now()
	if _, err := index.New(col); err != nil {
		return err
	}
	layers["index.build_mem_ms"] = msSince(t0)

	sorter := extsort.NewWithOptions(extsort.Options{MemoryBudget: buildSortBudget, Binary: true})
	t0 = time.Now()
	for _, d := range col.Intervals[0].Docs {
		for i, u := range d.Keywords {
			for _, v := range d.Keywords[i+1:] {
				if err := sorter.Add(u + "\x00" + v); err != nil {
					return err
				}
			}
		}
	}
	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	for _, ok := it.Next(); ok; _, ok = it.Next() {
	}
	if err := it.Err(); err != nil {
		return err
	}
	layers["extsort.sort_ms"] = msSince(t0)
	layers["extsort.spilled_runs"] = float64(sorter.Stats().Runs)
	it.Close()

	e, err := blogclusters.Open(ctx, blogclusters.FromCollection(col))
	if err != nil {
		return err
	}
	defer e.Close()
	sets, err := e.Clusters(ctx)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i+1 < len(sets); i++ {
		if _, err := simjoin.Join(sets[i], sets[i+1], cluster.DefaultAffinityThreshold); err != nil {
			return err
		}
	}
	layers["simjoin.join_ms"] = msSince(t0)
	return nil
}

func runBuildBatch(rc *runCtx) (*result, error) {
	ctx := context.Background()
	chk := &checker{}
	var corpora []*corpus.Collection
	var want []uint64
	if err := rc.setUp(func() (err error) {
		if corpora, err = buildCorpora(rc.quick); err != nil {
			return err
		}
		// Warm-up: every corpus once; its digest is the reference every
		// repetition must equal.
		want = nil
		for _, col := range corpora {
			d, _, err := buildEngineOp(ctx, col)
			if err != nil {
				return fmt.Errorf("build_batch warm-up: %w", err)
			}
			want = append(want, d)
		}
		return nil
	}, nil); err != nil {
		return nil, err
	}
	list := shuffledSegments(rc.seed, rc.segments(buildSegNominalMs), buildMix)

	bl := &buildLayers{}
	var lastStats blogclusters.EngineStats
	var openMs []float64
	var segs []segmentFunc
	for si, seg := range list {
		traced := rc.trace && si%2 == 1
		segs = append(segs, func(log *opLog) {
			for _, ci := range seg {
				var got uint64
				var err error
				t0 := time.Now()
				if traced {
					rc.rec.beginOp()
					end := rc.rec.begin("harness.op")
					got, err = buildStagedOp(ctx, rc, corpora[ci], bl)
					end()
				} else {
					got, lastStats, err = buildEngineOp(ctx, corpora[ci])
				}
				log.add(msSince(t0))
				if err != nil || got != want[ci] {
					chk.failf("corpus %d: output differs from the first build (err=%v)", ci, err)
				}
			}
		})
	}
	m, err := measure(rc, selfSUT{}, segs)
	if err != nil {
		return nil, err
	}
	r := &result{m: m, chk: chk, opDigest: digest(fmt.Sprint(list))}
	if rc.trace {
		t0 := time.Now()
		e, err := blogclusters.Open(ctx, blogclusters.FromCollection(corpora[0]))
		if err != nil {
			return nil, err
		}
		openMs = append(openMs, msSince(t0))
		e.Close()
		builds := 0.0
		for _, st := range lastStats.Stages {
			builds += float64(st.Builds)
		}
		r.layers = map[string]float64{
			"index.build_disk_ms":             median(bl.diskMs),
			"index.segment_bytes_per_posting": median(bl.bytesPerPosting),
			"cooccur.build_ms_per_interval":   median(bl.cooccurMs),
			"cooccur.pairs_per_interval":      median(bl.pairs),
			"cooccur.prune_ms_per_interval":   median(bl.pruneMs),
			"bicc.decompose_ms_per_interval":  median(bl.biccMs),
			"bicc.clusters_per_interval":      median(bl.clusters),
			"clustergraph.build_ms":           median(bl.graphMs),
			"clustergraph.edges":              median(bl.edges),
			"core.bfs_sub_ms":                 median(bl.solveMs),
			"engine.open_ms":                  median(openMs),
			"engine.stage_builds":             builds,
		}
		if err := buildProbes(ctx, corpora[0], r.layers); err != nil {
			return nil, err
		}
		r.traceOverhead()
	}
	return r, nil
}
