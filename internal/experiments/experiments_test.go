package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func runExp(t *testing.T, id string, scale Scale) *Table {
	t.Helper()
	tbl, err := Run(id, scale)
	if err != nil {
		t.Fatalf("Run(%s): %v", id, err)
	}
	if tbl.ID != id {
		t.Errorf("table ID = %q, want %q", tbl.ID, id)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Errorf("%s row %d has %d cells, header has %d", id, i, len(row), len(tbl.Header))
		}
	}
	if r := tbl.Render(); !strings.Contains(r, tbl.Header[0]) {
		t.Errorf("%s Render missing header", id)
	}
	return tbl
}

func cellInt(t *testing.T, tbl *Table, row, col int) int {
	t.Helper()
	v, err := strconv.Atoi(tbl.Rows[row][col])
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q not an int", tbl.ID, row, col, tbl.Rows[row][col])
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tbl := runExp(t, "table1", 0.05)
	if len(tbl.Rows) != 2 {
		t.Fatalf("table1 rows = %d, want 2", len(tbl.Rows))
	}
	for day := 0; day < 2; day++ {
		keywords := cellInt(t, tbl, day, 2)
		edges := cellInt(t, tbl, day, 3)
		if edges <= keywords {
			t.Errorf("day %d: edges (%d) not >> keywords (%d); the paper's shape requires a dense graph", day, edges, keywords)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	tbl := runExp(t, "fig6", 0.05)
	// Edges after pruning must be non-increasing in rho, and the
	// vertices they touch must fall accordingly.
	for i := 1; i < len(tbl.Rows); i++ {
		if cellInt(t, tbl, i, 1) > cellInt(t, tbl, i-1, 1) {
			t.Errorf("fig6: edges increased from rho %s to %s", tbl.Rows[i-1][0], tbl.Rows[i][0])
		}
		if cellInt(t, tbl, i, 3) > cellInt(t, tbl, i-1, 3) {
			t.Errorf("fig6: vertices increased from rho %s to %s", tbl.Rows[i-1][0], tbl.Rows[i][0])
		}
	}
}

func TestQualitativeShape(t *testing.T) {
	tbl := runExp(t, "qualitative", 0.2)
	if len(tbl.Rows) != 7 {
		t.Fatalf("qualitative rows = %d, want 7", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if strings.Contains(row[2], ": no") {
			t.Errorf("day %s: probe event not found in clusters (%s)", row[0], row[2])
		}
	}
}

// TestMemoryShape checks what the memory experiment measures, not the
// paper's DFS < BFS claim, which holds only for the unbounded
// Algorithms 2 and 3 (core's TestStatsPopulated keeps that comparison):
// with the suffix bound both peaks are tiny and BFS's is the smaller.
func TestMemoryShape(t *testing.T) {
	tbl := runExp(t, "memory", 0.05)
	bfsPeak := cellInt(t, tbl, 0, 1)
	dfsPeak := cellInt(t, tbl, 1, 1)
	if bfsPeak > dfsPeak || dfsPeak > 100 {
		t.Errorf("memory: BFS peak %d, DFS peak %d; want BFS ≤ DFS ≤ 100 paths", bfsPeak, dfsPeak)
	}
}

func TestKSensitivityRuns(t *testing.T) {
	runExp(t, "ksens", 0.05)
}

func TestFig12Runs(t *testing.T) {
	tbl := runExp(t, "fig12", 0.1)
	if len(tbl.Rows) != 4 {
		t.Fatalf("fig12 rows = %d, want 4", len(tbl.Rows))
	}
}

func TestClusterGraphShape(t *testing.T) {
	tbl := runExp(t, "clustergraph", 0.05)
	if len(tbl.Rows) != 2 {
		t.Fatalf("clustergraph rows = %d, want 2 (quadratic, simjoin)", len(tbl.Rows))
	}
	// Both variants must report the identical graph.
	nodes, edges := cellInt(t, tbl, 0, 1), cellInt(t, tbl, 0, 2)
	if cellInt(t, tbl, 1, 1) != nodes || cellInt(t, tbl, 1, 2) != edges {
		t.Errorf("simjoin graph (%s/%s nodes/edges) differs from quadratic (%d/%d)",
			tbl.Rows[1][1], tbl.Rows[1][2], nodes, edges)
	}
}

// TestTimingSweepsTinyScale exercises the timing sweeps at the floor
// scale so the table plumbing is covered; the real measurements run via
// cmd/experiments. Table 3 is excluded: its TA column is exponential in
// m regardless of n.
func TestTimingSweepsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps skipped in short mode")
	}
	for _, id := range []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig13", "fig14"} {
		runExp(t, id, 0.01)
	}
}

func TestDiskIndexShape(t *testing.T) {
	tbl := runExp(t, "diskindex", 0.02)
	if len(tbl.Rows) != 2 {
		t.Fatalf("diskindex rows = %d, want 2 (mem + disk)", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "mem" || tbl.Rows[1][0] != "disk" {
		t.Errorf("backends = %q, %q; want mem, disk", tbl.Rows[0][0], tbl.Rows[1][0])
	}
	// The disk row must report measurable I/O; the mem row must not.
	if tbl.Rows[0][4] != "-" {
		t.Errorf("mem rand_reads = %q, want -", tbl.Rows[0][4])
	}
	if v := cellInt(t, tbl, 1, 4); v <= 0 {
		t.Errorf("disk rand_reads = %d, want > 0", v)
	}
	restricted, err := RunConfig("diskindex", Config{Scale: 0.02, IndexBackend: "disk", IndexMemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(restricted.Rows) != 1 || restricted.Rows[0][0] != "disk" {
		t.Errorf("restricted run rows = %v, want one disk row", restricted.Rows)
	}
	if _, err := RunConfig("diskindex", Config{Scale: 0.02, IndexBackend: "bogus"}); err == nil {
		t.Error("bogus backend accepted")
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 16 {
		t.Errorf("registry has %d experiments, want 16: %v", len(ids), ids)
	}
	if _, err := Run("nope", 0.5); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := Run("table1", 0); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := Run("table1", 1.5); err == nil {
		t.Error("scale > 1 accepted")
	}
}

func TestScaleNodes(t *testing.T) {
	if got := Scale(0.5).nodes(1000); got != 500 {
		t.Errorf("Scale(0.5).nodes(1000) = %d, want 500", got)
	}
	if got := Scale(0.001).nodes(1000); got != 10 {
		t.Errorf("tiny scale floor = %d, want 10", got)
	}
}
