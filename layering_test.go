package blogclusters

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// TestImportLayering pins which of this module's packages a package may
// import, outside its tests. The solvers see the cluster graph and the
// top-k primitives and nothing else; diskstore and bicc are leaves.
// Imports are read from the source with go/build, so the test runs no
// go command and needs no network.
func TestImportLayering(t *testing.T) {
	for dir, allowed := range map[string][]string{
		"internal/core":      {"repro/internal/clustergraph", "repro/internal/topk"},
		"internal/diskstore": nil,
		"internal/bicc":      nil,
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
