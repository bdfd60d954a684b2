// Package cli holds the flag, corpus and lifecycle boilerplate shared
// by the commands (cmd/blogscope, cmd/blogstable, cmd/blogserved,
// cmd/experiments): corpus selection (-input/-demo) and index backend
// selection (-index/-indexcache/-indexfile) mapped onto a
// blogclusters.Engine source and option list, plus the SIGINT/SIGTERM
// graceful-shutdown context (SignalContext) every command cancels on. Each command keeps
// only the flags specific to its own query surface.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	blogclusters "repro"
	"repro/internal/corpus"
	"repro/internal/shard"
)

// EngineFlags is the shared flag set. Register it on a FlagSet before
// flag parsing; after parsing, Source and Options translate the values
// into Engine inputs.
type EngineFlags struct {
	// Corpus selection.
	Input string
	Demo  bool
	// Intervals restricts the loaded corpus to a "from:to" slice of
	// global intervals (half-open, re-stamped to local indices) — how a
	// shard server loads just its partition of a shared corpus.
	Intervals string

	// Keyword-index backend. Only blogserved takes pushes, so only it
	// registers -index-compact-after for IndexCompactAfter.
	IndexBackend      string
	IndexCache        int
	IndexFile         string
	IndexCompactAfter int
}

// Register installs the shared flags on fs (use flag.CommandLine in
// main). It installs none for IndexCompactAfter, which blogserved
// registers itself.
func (f *EngineFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Input, "input", "", "JSONL corpus file (one document per line)")
	fs.BoolVar(&f.Demo, "demo", false, "use the synthetic news-week corpus")
	fs.StringVar(&f.Intervals, "intervals", "", "serve only global intervals FROM:TO of the corpus (half-open), e.g. 0:4 — the shard-server slice of a shared corpus")
	fs.StringVar(&f.IndexBackend, "index", "mem", "keyword-index backend: mem keeps each interval's postings grouped in memory; disk writes posting segments to files and reads their blocks through an LRU cache")
	fs.IntVar(&f.IndexCache, "indexcache", 0, "with -index disk only: block-cache budget in bytes per index segment; 0 = default (8 MiB)")
	fs.StringVar(&f.IndexFile, "indexfile", "", "with -index disk only: the segment file's path, rebuilt at every start and replacing whatever is at PATH; it is never reopened. Empty = a private temp file")
}

// Source maps -input/-demo (and -intervals, when set) onto an Engine
// corpus source. An -intervals slice forces the corpus to be
// materialized eagerly so the slice can be cut and re-stamped before
// the Engine sees it.
func (f *EngineFlags) Source() (blogclusters.Source, error) {
	if err := f.Validate(); err != nil {
		return blogclusters.Source{}, err
	}
	if f.Intervals == "" {
		if f.Demo {
			return blogclusters.FromGenerator(blogclusters.NewsWeekCorpus(2007, 600)), nil
		}
		return blogclusters.FromJSONLFile(f.Input), nil
	}
	col, err := f.Corpus()
	if err != nil {
		return blogclusters.Source{}, err
	}
	return blogclusters.FromCollection(col), nil
}

// Corpus materializes the corpus Source selects: the -input/-demo
// corpus, cut to the -intervals slice (re-stamped to local indices)
// when one is set.
func (f *EngineFlags) Corpus() (*blogclusters.Collection, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Intervals == "" {
		return f.Collection()
	}
	from, to, err := parseIntervalRange(f.Intervals)
	if err != nil {
		return nil, err
	}
	col, err := f.Collection()
	if err != nil {
		return nil, err
	}
	return shard.SliceCollection(col, from, to)
}

// Validate rejects a corpus choice that names neither or both of
// -input and -demo, and the disk backend's -indexfile, -indexcache and
// -index-compact-after on the mem backend, which has no segment file,
// block cache or compaction for them to configure.
func (f *EngineFlags) Validate() error {
	disk := f.IndexBackend == "disk"
	switch {
	case f.IndexFile != "" && !disk:
		return fmt.Errorf("-indexfile names the disk backend's segment file; pass -index disk or drop it")
	case f.IndexCache != 0 && !disk:
		return fmt.Errorf("-indexcache sizes the disk backend's block cache; pass -index disk or drop it")
	case f.IndexCompactAfter != 0 && !disk:
		return fmt.Errorf("-index-compact-after folds the disk backend's segments; pass -index disk or drop it")
	case f.Demo && f.Input != "":
		return fmt.Errorf("pass either -demo or -input, not both")
	case f.Demo, f.Input != "":
		return nil
	default:
		return fmt.Errorf("need -input FILE or -demo (see -help)")
	}
}

// Collection materializes the -input/-demo corpus (without any
// -intervals slicing).
func (f *EngineFlags) Collection() (*blogclusters.Collection, error) {
	if f.Demo {
		return blogclusters.GenerateCorpus(blogclusters.NewsWeekCorpus(2007, 600))
	}
	if f.Input == "" {
		return nil, fmt.Errorf("need -input FILE or -demo (see -help)")
	}
	r, err := os.Open(f.Input)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return corpus.ReadJSONL(r)
}

// parseIntervalRange parses the -intervals "from:to" syntax.
func parseIntervalRange(s string) (from, to int, err error) {
	lo, hi, ok := strings.Cut(s, ":")
	if ok {
		from, err = strconv.Atoi(strings.TrimSpace(lo))
		if err == nil {
			to, err = strconv.Atoi(strings.TrimSpace(hi))
		}
	}
	if !ok || err != nil || from < 0 || to <= from {
		return 0, 0, fmt.Errorf("-intervals wants FROM:TO with 0 <= FROM < TO, got %q", s)
	}
	return from, to, nil
}

// IndexOptions maps the index flags onto IndexOptions.
func (f *EngineFlags) IndexOptions() blogclusters.IndexOptions {
	return blogclusters.IndexOptions{
		Backend:      f.IndexBackend,
		Path:         f.IndexFile,
		MemBudget:    f.IndexCache,
		CompactAfter: f.IndexCompactAfter,
	}
}

// Options assembles the Engine option list from the shared flags plus
// a command's own cluster/graph settings.
func (f *EngineFlags) Options(cluster blogclusters.ClusterOptions, graph blogclusters.GraphOptions) []blogclusters.Option {
	return []blogclusters.Option{
		blogclusters.WithClusterOptions(cluster),
		blogclusters.WithGraphOptions(graph),
		blogclusters.WithIndexOptions(f.IndexOptions()),
	}
}
