package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
)

// DiskIndexExp measures the BlogScope serving layer's two index
// backends on the same corpus and workload, the way Section 5 measures
// the solvers: wall-clock plus observable I/O. Both hold the one
// segment layout — resident term dictionaries, CRC-checked posting
// blocks read through an LRU cache — the mem backend in memory, the
// disk backend in a file, so the random-read column is the EMBANKS-style
// access cost of either. Config.IndexBackend restricts the run to one
// backend; Config.IndexMemBudget sets the block-cache bytes.
func DiskIndexExp(cfg Config) (*Table, error) {
	col, err := corpus.Generate(corpus.GeneratorConfig{
		Seed:            77,
		NumIntervals:    6,
		BackgroundPosts: cfg.Scale.nodes(4000),
		BackgroundVocab: cfg.Scale.nodes(3000),
		WordsPerPost:    8,
	})
	if err != nil {
		return nil, err
	}
	backends := []string{"mem", "disk"}
	if cfg.IndexBackend != "" {
		backends = []string{cfg.IndexBackend}
	}
	t := &Table{
		ID:     "diskindex",
		Title:  "keyword index backends: build + query cost (BlogScope serving layer)",
		Header: []string{"backend", "build_s", "queries", "query_s", "rand_reads", "seq_reads", "read_MB", "cache_hit%"},
		Notes: fmt.Sprintf("corpus: %d docs, %d intervals; one segment layout on both backends (in memory or in a file), held to a reference index by internal/index's tests",
			col.NumDocs(), len(col.Intervals)),
	}
	for _, backend := range backends {
		row, err := runIndexBackend(cfg.Context(), col, backend, cfg.IndexMemBudget)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runIndexBackend(ctx context.Context, col *corpus.Collection, backend string, cacheBytes int) ([]string, error) {
	start := time.Now()
	r, err := index.OpenStore(ctx, col, backend, "", index.Config{MemBudget: cacheBytes})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	buildTime := time.Since(start)

	vocab, err := r.Vocabulary(0)
	if err != nil {
		return nil, err
	}
	if len(vocab) == 0 {
		return nil, fmt.Errorf("experiments: empty interval-0 vocabulary")
	}
	r.ResetStats()
	rng := rand.New(rand.NewSource(7))
	const queries = 2000
	start = time.Now()
	for q := 0; q < queries; q++ {
		u := vocab[rng.Intn(len(vocab))]
		v := vocab[rng.Intn(len(vocab))]
		iv := rng.Intn(r.NumIntervals())
		if _, err := r.Search([]string{u, v}, iv); err != nil {
			return nil, err
		}
		if _, err := r.TimeSeries(u); err != nil {
			return nil, err
		}
	}
	queryTime := time.Since(start)

	st := r.Stats()
	hitRate := "-"
	if hits, misses, _ := r.CacheStats(); hits+misses > 0 {
		hitRate = fmt.Sprintf("%.1f", 100*float64(hits)/float64(hits+misses))
	}
	return []string{
		backend,
		fmtDur(buildTime),
		itoa(queries),
		fmtDur(queryTime),
		i64toa(st.RandomReads),
		i64toa(st.SequentialReads),
		fmt.Sprintf("%.1f", float64(st.BytesRead)/(1<<20)),
		hitRate,
	}, nil
}
