package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(c.n, 10); got != c.want {
			t.Errorf("highestPercentile(%d, 10) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([...], n=4) gives [2.75, 5.5, 8.25] for 1..10:
	// spread = (8.25-2.75)/5.5 = 1.
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median(1..10) = %v, want 5.5", got)
	}
}

// syntheticRun is the record of a run on a machine `slow` times slower
// than the reference: every duration and every kernel sample is
// stretched alike.
func syntheticRun(slow float64) *measured {
	cal := &calibrator{}
	m := &measured{setup: []float64{2 * slow}}
	for seg := 0; seg < 6; seg++ {
		cal.samples = append(cal.samples, calNominalMs*slow, calNominalMs*slow*1.1, calNominalMs*slow*0.9)
		wall := 0.0
		for op := 0; op < 20; op++ {
			d := float64(5+(op*7+seg)%13) * slow
			m.lat = append(m.lat, d)
			wall += d
		}
		m.seg = append(m.seg, wall)
		m.cpu += 0.8 * wall
	}
	m.ops, m.scale = len(m.lat), cal.scale()
	return m
}

func TestCalibrationCancelsAUniformlySlowerMachine(t *testing.T) {
	ref, slow := syntheticRun(1), syntheticRun(1.3)
	for name, want := range ref.endToEnd() {
		if got := slow.endToEnd()[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: %v on the reference machine, %v on one 1.3x slower", name, want, got)
		}
	}
	if got := ref.endToEnd()["setup_s"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("setup_s on the reference machine = %v, want 2", got)
	}
	raw, cal := map[string]float64{}, slow.endToEnd()
	slow.rawLayer(raw)
	if r := raw["raw.latency_p50_ms"] / cal["latency_p50_ms"]; math.Abs(r-1.3) > 1e-9 {
		t.Errorf("raw/calibrated p50 = %v, want 1.3", r)
	}
}

func TestOpListsFollowTheSeed(t *testing.T) {
	lists := map[string]func(seed int64) uint64{
		"build_batch": func(s int64) uint64 { return digest(fmt.Sprint(shuffledSegments(s, 3, buildMix))) },
		"solve_paper": func(s int64) uint64 { return digest(fmt.Sprint(shuffledSegments(s, 3, solveMix(solveClasses(true))))) },
		"serve_hot": func(s int64) uint64 {
			return digest(pathsDigest(hotQueries(s, hotIntervals)), fmt.Sprint(hotOpList(s, 2, 50)))
		},
		"serve_churn": func(s int64) uint64 { return churnDigest(churnOpList(s, 3, 1, 1)) },
	}
	for _, w := range workloads {
		f := lists[w.name]
		if f == nil {
			t.Fatalf("no op list registered for workload %s", w.name)
		}
		if f(7) != f(7) {
			t.Errorf("%s: same seed, different operation lists", w.name)
		}
		if f(7) == f(8) {
			t.Errorf("%s: seeds 7 and 8 give the same operation list", w.name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100] with children [10,30] and [20,50] (overlapping: union
	// 40) and [90,120] (clipped to 10); the first child has a grandchild.
	spans := []span{
		{Name: "server.socket", Start: 0, End: 100, Parent: -1},
		{Name: "server.handler", Start: 10, End: 30, Parent: 0},
		{Name: "engine.query", Start: 20, End: 50, Parent: 0},
		{Name: "index.read", Start: 12, End: 17, Parent: 1},
		{Name: "core.solve", Start: 90, End: 120, Parent: 0},
	}
	want := []int64{50, 15, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	by := selfByLayer(spans)
	if math.Abs(by["server"]-65e-6) > 1e-12 || math.Abs(by["core"]-30e-6) > 1e-12 {
		t.Errorf("selfByLayer = %v", by)
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	var off *recorder
	off.beginOp()
	off.begin("x")()
	r := newRecorder()
	r.beginOp()
	endA := r.begin("a.outer")
	r.begin("b.inner")()
	endA()
	if len(r.spans) != 2 || r.spans[1].Parent != 0 || r.spans[0].Parent != -1 || r.spans[1].OpID != 1 {
		t.Errorf("spans = %+v", r.spans)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesCode is the drift gate between BENCHMARK.json
// and the metric and workload tables in meta.go.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, file []benchMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(file), len(code))
			return
		}
		for i, d := range code {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code has %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: metric name %q is not a valid name", kind, d.name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q (or their rationales differ)", i, bf.Workloads[i].Name, w.name)
		}
	}
}

// TestQuickSmoke runs all four workloads at tiny sizes, traced, and
// checks that each emits every end-to-end and per-layer metric the
// tables name, that nothing failed, and that the end-to-end values are
// usable numbers (never 0).
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts blogserved")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cal := newCalibrator()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			rc := &runCtx{seed: 3, seconds: 1, quick: true, trace: true, root: root, tmp: tmp, cal: cal, rec: newRecorder()}
			res, err := w.run(rc)
			runCleanups()
			if err != nil {
				t.Fatal(err)
			}
			res.finishLayers(rc)
			for _, n := range res.chk.notes {
				t.Error("check failed:", n)
			}
			e2e, layer := res.output(false), res.output(true)
			if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", e2e.Correct, e2e.Attempted, e2e.Failed)
			}
			for _, d := range endToEndMetrics {
				m, ok := e2e.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
			if len(e2e.Metrics) != len(endToEndMetrics) || len(layer.Metrics) != len(perLayerMetrics) {
				t.Errorf("emitted %d end-to-end and %d per-layer metrics, tables have %d and %d",
					len(e2e.Metrics), len(layer.Metrics), len(endToEndMetrics), len(perLayerMetrics))
			}
			for name := range res.layers {
				if m, ok := layer.Metrics[name]; !ok {
					t.Errorf("workload reports layer metric %q that meta.go does not list", name)
				} else if math.IsNaN(m.Value) {
					t.Errorf("layer metric %q is NaN", name)
				}
			}
			if len(rc.rec.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			path := tmp + "/trace.jsonl"
			if err := rc.rec.writeJSONL(path); err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}
