package blogclusters

import (
	"go/build"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestImportLayering pins which of this module's packages each package
// may import, outside its tests. Every directory under internal/ needs a
// row, so adding or deleting a package is a deliberate edit here; the
// "cmd" row covers every command.
//
// The solvers see the cluster graph and the top-k primitives and
// nothing else; diskstore, bicc and par are leaves. The Section 3/4
// build packages run sequentially inside one task, so none of them
// reaches for the worker pool: only the interval pool (the root
// package), the disk index build's interval pool and the cluster-graph
// edge tasks do. The shard coordinator
// holds merge rules only: the wire format and its transport live in
// internal/server, so shard imports no HTTP or JSON package. obs is a
// leaf too: a span's work block is whatever its caller hands it, so the
// solvers' counters reach a trace without obs importing core. Imports
// are read from the source with go/build, so the test runs no go
// command and needs no network.
func TestImportLayering(t *testing.T) {
	rows := map[string][]string{
		".": {"repro/internal/bicc", "repro/internal/burst", "repro/internal/cluster",
			"repro/internal/clustergraph", "repro/internal/cooccur", "repro/internal/core",
			"repro/internal/corpus", "repro/internal/diskstore", "repro/internal/faultfs",
			"repro/internal/index", "repro/internal/obs", "repro/internal/par",
			"repro/internal/stats", "repro/internal/text", "repro/internal/topk"},
		"cmd": {"repro", "repro/internal/cli", "repro/internal/cluster", "repro/internal/experiments",
			"repro/internal/server", "repro/internal/shard"},

		"internal/bicc":         nil,
		"internal/burst":        nil,
		"internal/cli":          {"repro", "repro/internal/corpus", "repro/internal/shard"},
		"internal/cluster":      nil,
		"internal/clustergraph": {"repro/internal/cluster", "repro/internal/par", "repro/internal/simjoin"},
		"internal/cooccur":      {"repro/internal/corpus", "repro/internal/stats"},
		"internal/core":         {"repro/internal/clustergraph", "repro/internal/topk"},
		"internal/corpus":       nil,
		"internal/diskstore":    nil,
		"internal/experiments": {"repro/internal/bicc", "repro/internal/cluster", "repro/internal/clustergraph",
			"repro/internal/cooccur", "repro/internal/core", "repro/internal/corpus", "repro/internal/index",
			"repro/internal/simjoin", "repro/internal/stats", "repro/internal/synth"},
		"internal/extsort":  {"repro/internal/faultfs"},
		"internal/faultfs":  nil,
		"internal/index":    {"repro/internal/corpus", "repro/internal/diskstore", "repro/internal/faultfs", "repro/internal/par"},
		"internal/metrics":  nil,
		"internal/obs":      nil,
		"internal/par":      nil,
		"internal/raceflag": nil,
		"internal/server": {"repro", "repro/internal/core", "repro/internal/metrics", "repro/internal/obs",
			"repro/internal/shard"},
		"internal/shard": {"repro", "repro/internal/burst", "repro/internal/core", "repro/internal/metrics",
			"repro/internal/obs", "repro/internal/par", "repro/internal/topk"},
		"internal/simjoin": {"repro/internal/cluster"},
		"internal/stats":   nil,
		"internal/synth":   {"repro/internal/cluster", "repro/internal/clustergraph"},
		"internal/text":    nil,
		"internal/topk":    nil,
	}

	dirs := []string{"."}
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(parent, e.Name()))
			}
		}
	}
	for _, dir := range dirs {
		row := dir
		if strings.HasPrefix(dir, "cmd/") {
			row = "cmd"
		}
		allowed, ok := rows[row]
		if !ok {
			t.Errorf("%s has no row in the layering table", dir)
			continue
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			if (imp == "repro" || strings.HasPrefix(imp, "repro/")) && !slices.Contains(allowed, imp) {
				t.Errorf("%s imports %s; allowed: %v", dir, imp, allowed)
			}
		}
	}
	for row := range rows {
		if row == "." || row == "cmd" {
			continue
		}
		if _, err := os.Stat(row); err != nil {
			t.Errorf("layering row %s names no package: %v", row, err)
		}
	}

	shard, err := build.ImportDir("internal/shard", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range []string{"net/http", "net/url", "encoding/json"} {
		if slices.Contains(shard.Imports, imp) {
			t.Errorf("internal/shard imports %s; the wire format belongs to internal/server", imp)
		}
	}
}
