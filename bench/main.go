// Command bench is the repository's benchmark: four workloads over the
// blogclusters stack, each measured end to end on fixed,
// seed-determined work with machine-normalised timings, plus one traced
// run per workload for the per-layer numbers. See README.md.
//
//	go run . [-seed N] [-seconds S]                 all four workloads
//	go run . -workload W -seed N -seconds S -trace 0|1
//	go run . -selfcheck N                           A/A repeatability check
//
// Run from bench/ (or through bench/run.sh from the checkout root).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// result is what one workload run hands back to main.
type result struct {
	m        *measured
	chk      *checker
	layers   map[string]float64 // traced runs only
	opDigest uint64
}

// traceOverhead compares the traced (odd) with the untraced (even)
// segments of a traced run; they are equal in shape.
func (r *result) traceOverhead() {
	var off, on []float64
	for i, s := range r.m.seg {
		if i%2 == 1 {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	r.layers["trace.overhead_pct"] = (median(on)/median(off) - 1) * 100
}

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 25

// cleanups run once, in reverse order, on every exit path: success,
// failure and SIGINT/SIGTERM.
var cleanups struct {
	sync.Mutex
	fns []*func()
}

// onExit registers fn to run when the process exits; the function it
// returns takes the registration back (the work was done in time).
func onExit(fn func()) (forget func()) {
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, &fn)
	cleanups.Unlock()
	return func() {
		cleanups.Lock()
		fn = nil
		cleanups.Unlock()
	}
}

func runCleanups() {
	cleanups.Lock()
	var fns []func()
	for _, fn := range cleanups.fns {
		if *fn != nil {
			fns = append(fns, *fn)
		}
	}
	cleanups.fns = nil
	cleanups.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// exitMu is held from the first call of exit until the process ends,
// so a signal that arrives while main is already cleaning up waits for
// that cleanup instead of exiting beside it.
var exitMu sync.Mutex

func exit(code int) {
	exitMu.Lock()
	runCleanups()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	exit(2)
}

// findRoot walks up from the working directory to the checkout that
// holds module repro.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing checkout of module repro (run from its bench/ directory)")
		}
		dir = parent
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload: build_batch, solve_paper, serve_hot or serve_churn (default: all four)")
		seed      = flag.Int64("seed", 1, "seed of the operation list")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured phase length on the reference machine; fixes the number of segments")
		trace     = flag.Int("trace", 0, "1 = traced run: report the per-layer metrics and write bench/out/trace-<workload>.jsonl")
		quick     = flag.Bool("quick", false, "tiny sizes, for smoke tests")
		selfcheck = flag.Int("selfcheck", 0, "A/A mode: run two interleaved sets of N runs per workload and compare them against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "bench: interrupted, cleaning up")
		exit(130)
	}()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	w := workloadByName(*workload)
	if *workload != "" && w == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	switch {
	case *selfcheck > 0:
		ws := workloads
		if w != nil {
			ws = []workloadDef{*w}
		}
		exit(runSelfcheck(root, ws, *selfcheck, *seed, *seconds, *quick))
	case w == nil:
		exit(runAll(root, *seed, *seconds, *trace, *quick))
	}

	// Everything a run writes stays inside the checkout: temp files of
	// the harness, of the engine (TMPDIR is what os.TempDir reads) and of
	// the child go under .bench_build/tmp, traces under bench/out.
	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(tmpRoot, "run-")
	if err != nil {
		fatal(err)
	}
	onExit(func() { os.RemoveAll(tmp) })
	os.Setenv("TMPDIR", tmp)

	rc := &runCtx{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace == 1, root: root, tmp: tmp, cal: newCalibrator()}
	if rc.trace {
		rc.rec = newRecorder()
	}
	start := time.Now()
	res, err := w.run(rc)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	if rc.trace {
		res.finishLayers(rc)
		out := filepath.Join(root, "bench", "out")
		if err := os.MkdirAll(out, 0o755); err != nil {
			fatal(err)
		}
		if err := rc.rec.writeJSONL(filepath.Join(out, "trace-"+w.name+".jsonl")); err != nil {
			fatal(err)
		}
	}
	res.print(w, rc, time.Since(start))
	if res.chk.failed > 0 {
		exit(1)
	}
	exit(0)
}

// finishLayers adds the blocks every traced run shares: raw timings,
// calibration quality and the self-time shares per layer group.
func (r *result) finishLayers(rc *runCtx) {
	r.m.rawLayer(r.layers)
	pts := sortedCopy(rc.cal.samples)
	r.layers["calib.kernel_ms_p50"] = quantile(pts, 0.5)
	r.layers["calib.kernel_iqr_pct"] = (quantile(pts, 0.75) - quantile(pts, 0.25)) / quantile(pts, 0.5) * 100
	self := selfByLayer(rc.rec.spans)
	total := 0.0
	for _, v := range self {
		total += v
	}
	for name, layers := range layerGroups {
		share := 0.0
		for _, l := range layers {
			share += self[l]
		}
		if total > 0 {
			r.layers[name] = share / total * 100
		}
	}
}

// outputLine is the contract's last line of standard output.
type outputLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) output(trace bool) outputLine {
	out := outputLine{Correct: r.chk.failed == 0, Attempted: r.m.ops, Failed: r.chk.failed, Metrics: map[string]metric{}}
	if trace {
		for _, d := range perLayerMetrics {
			v := r.layers[d.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // nothing sampled (e.g. no compaction in a -quick run)
			}
			out.Metrics[d.name] = metric{v, d.unit}
		}
		return out
	}
	e2e := r.m.endToEnd()
	for _, d := range endToEndMetrics {
		out.Metrics[d.name] = metric{e2e[d.name], d.unit}
	}
	return out
}

// print writes every metric by name with its unit, then the result
// line.
func (r *result) print(w *workloadDef, rc *runCtx, took time.Duration) {
	out := r.output(rc.trace)
	fmt.Printf("workload %s  seed %d  ops_attempted %d  ops_failed %d  segments %d  op-list %016x  (run took %.1fs)\n",
		w.name, rc.seed, out.Attempted, out.Failed, len(r.m.seg), r.opDigest, took.Seconds())
	fmt.Printf("  latency samples: %d; highest percentile with >= 10 samples beyond it: p%g\n",
		len(r.m.lat), highestPercentile(len(r.m.lat), 10))
	for _, n := range r.chk.notes {
		fmt.Println("  FAILED:", n)
	}
	defs := endToEndMetrics
	if rc.trace {
		defs = perLayerMetrics
	}
	for _, d := range defs {
		fmt.Printf("  %-36s %16.6g %s\n", d.name, out.Metrics[d.name].Value, d.unit)
	}
	if !rc.trace {
		// The same timings as measured: what -selfcheck compares the
		// calibrated spread with.
		for _, d := range endToEndMetrics {
			if v, ok := r.m.timings(1)[d.name]; ok {
				fmt.Printf("  %-36s %16.6g %s\n", "raw."+d.name, v, d.unit)
			}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
