package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
)

// DiskIndexExp measures the BlogScope serving layer's two index
// backends on the same corpus and workload, the way Section 5 measures
// the solvers: wall-clock plus observable I/O. The mem backend holds
// every posting list resident; the disk backend keeps only term
// dictionaries resident and reads CRC-checked posting blocks through
// an LRU cache, so the random-read column is the EMBANKS-style access
// cost. Config.IndexBackend restricts the run to one backend;
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
		Notes: fmt.Sprintf("corpus: %d docs, %d intervals; identical results asserted by internal/index equivalence tests",
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
	var (
		r     index.Reader
		disk  *index.DiskIndex
		start = time.Now()
	)
	switch backend {
	case "mem":
		x, err := index.New(col)
		if err != nil {
			return nil, err
		}
		r = x
	case "disk":
		dir, err := os.MkdirTemp("", "diskindex-exp-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "seg")
		if err := index.BuildDiskCtx(ctx, col, path, index.Config{}); err != nil {
			return nil, err
		}
		disk, err = index.OpenDisk(path, index.Config{MemBudget: cacheBytes})
		if err != nil {
			return nil, err
		}
		r = disk
	default:
		return nil, fmt.Errorf("experiments: unknown index backend %q (want mem or disk)", backend)
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
	if disk != nil {
		disk.ResetStats()
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

	randReads, seqReads, readMB, hitRate := "-", "-", "-", "-"
	if disk != nil {
		st := disk.Stats()
		hits, misses, _ := disk.CacheStats()
		randReads = i64toa(st.RandomReads)
		seqReads = i64toa(st.SequentialReads)
		readMB = fmt.Sprintf("%.1f", float64(st.BytesRead)/(1<<20))
		if hits+misses > 0 {
			hitRate = fmt.Sprintf("%.1f", 100*float64(hits)/float64(hits+misses))
		}
	}
	return []string{
		backend,
		fmtDur(buildTime),
		itoa(queries),
		fmtDur(queryTime),
		randReads,
		seqReads,
		readMB,
		hitRate,
	}, nil
}
