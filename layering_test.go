package blogclusters

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// TestImportLayering pins which of this module's packages a package may
// import, outside its tests. The solvers see the cluster graph and the
// top-k primitives and nothing else; diskstore, bicc and par are
// leaves. The Section 3/4 build packages run sequentially inside one
// task, so none of them reaches for the worker pool: only the interval
// pool and the cluster-graph edge tasks do. The shard coordinator holds
// merge rules only: the wire format and its transport live in
// internal/server, so shard imports no HTTP or JSON package. obs is a
// leaf too: a span's work block is whatever its caller hands it, so the
// solvers' counters reach a trace without obs importing core. Imports
// are read from the source with go/build, so the test runs no go
// command and needs no network.
func TestImportLayering(t *testing.T) {
	for dir, allowed := range map[string][]string{
		"internal/core":      {"repro/internal/clustergraph", "repro/internal/topk"},
		"internal/diskstore": nil,
		"internal/bicc":      nil,
		"internal/par":       nil,
		"internal/obs":       nil,
		"internal/cooccur":   {"repro/internal/corpus", "repro/internal/faultfs", "repro/internal/stats"},
		"internal/simjoin":   {"repro/internal/cluster"},
		"internal/extsort":   {"repro/internal/faultfs"},
		"internal/shard": {"repro", "repro/internal/burst", "repro/internal/core", "repro/internal/metrics",
			"repro/internal/obs", "repro/internal/par", "repro/internal/plan", "repro/internal/topk"},
	} {
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
