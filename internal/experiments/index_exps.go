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
// the solvers: wall-clock plus observable I/O. The mem backend keeps
// each interval's grouped postings and reads no block, so its I/O
// columns read zero; the disk backend reads the EMBANKS-style segment
// file — resident term dictionaries, CRC-checked posting blocks read
// through an LRU cache — and the random-read column is its access cost.
// Config.IndexBackend restricts the run to one backend;
// Config.IndexMemBudget sets the disk block-cache bytes.
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
		Notes: fmt.Sprintf("corpus: %d docs, %d intervals; mem keeps the grouped postings and reads no block, disk reads a segment file through its block cache; both held to a reference index by internal/index's tests",
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
	store, disk := r.(*index.Store)
	if disk {
		store.ResetStats()
	}
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

	row := []string{backend, fmtDur(buildTime), itoa(queries), fmtDur(queryTime), "0", "0", "0.0", "-"}
	if disk {
		st := store.Stats()
		row[4], row[5] = i64toa(st.RandomReads), i64toa(st.SequentialReads)
		row[6] = fmt.Sprintf("%.1f", float64(st.BytesRead)/(1<<20))
		if hits, misses, _ := store.CacheStats(); hits+misses > 0 {
			row[7] = fmt.Sprintf("%.1f", 100*float64(hits)/float64(hits+misses))
		}
	}
	return row, nil
}
