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
// pool and the cluster-graph edge tasks do. Imports are read from the
// source with go/build, so the test runs no go command and needs no
// network.
func TestImportLayering(t *testing.T) {
	for dir, allowed := range map[string][]string{
		"internal/core":      {"repro/internal/clustergraph", "repro/internal/topk"},
		"internal/diskstore": nil,
		"internal/bicc":      nil,
		"internal/par":       nil,
		"internal/cooccur":   {"repro/internal/corpus", "repro/internal/faultfs", "repro/internal/stats"},
		"internal/simjoin":   {"repro/internal/cluster"},
		"internal/extsort":   {"repro/internal/faultfs"},
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
}
