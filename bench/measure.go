package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// runCtx is what one workload run gets from main.
type runCtx struct {
	seed    int64
	seconds float64
	quick   bool
	trace   bool
	root    string // the enclosing checkout (module repro)
	tmp     string // this run's private directory, removed at exit
	cal     *calibrator
	rec     *recorder // nil unless trace
	// excluded is time spent inside the current segment on work that is
	// not the measured system's (the traced run's in-process twin); it is
	// taken off the segment's wall time.
	excluded time.Duration
	// setup holds the seconds each set-up repetition took, as measured.
	setup []float64
}

// pause runs fn and keeps its time out of the enclosing segment.
func (rc *runCtx) pause(fn func()) {
	t0 := time.Now()
	fn()
	rc.excluded += time.Since(t0)
}

func (rc *runCtx) takeExcluded() time.Duration {
	d := rc.excluded
	rc.excluded = 0
	return d
}

// segments turns the requested run length into a whole number of
// equal-shape segments: work is fixed by the arguments, never by the
// clock, so both sides of a comparison execute the identical list.
// nominalSegMs is the segment's time on the reference machine.
func (rc *runCtx) segments(nominalSegMs float64) int {
	if rc.quick {
		return 2
	}
	n := int(rc.seconds*1000/nominalSegMs + 0.5)
	return max(n, 3)
}

// sut reads the resource counters of the system under test: the
// harness process itself for in-process workloads, the blogserved
// child for serving ones.
type sut interface {
	cpu() time.Duration
	heap() (heapCounters, error)
	liveHeapMiB() (float64, error)
	pid() int
}

type selfSUT struct{}

func (selfSUT) cpu() time.Duration          { return selfCPU() }
func (selfSUT) heap() (heapCounters, error) { return selfHeap(), nil }
func (selfSUT) pid() int                    { return os.Getpid() }
func (selfSUT) liveHeapMiB() (float64, error) {
	runtime.GC()
	return float64(selfHeap().inUse) / (1 << 20), nil
}

func (c *child) cpu() time.Duration {
	d, _ := procCPU(c.pid()) // a child that is gone fails its requests, which is reported
	return d
}

// measured is everything the measured phase of one run produced, as
// measured: durations in milliseconds, set-ups in seconds. scale turns
// them into reference-machine time.
type measured struct {
	ops       int
	lat       []float64 // per op
	seg       []float64 // wall per segment
	cpu       float64   // system under test, summed over segments
	clientCPU float64   // harness process, summed over segments
	heap      heapCounters
	liveHeap  float64 // MiB held after a collection at the end of the run
	peakRSS   float64 // MiB, VmHWM at the end of the run
	setup     []float64
	scale     float64
}

// opLog collects one latency (ms) per operation.
type opLog struct{ lat []float64 }

func (l *opLog) add(latMs float64) { l.lat = append(l.lat, latMs) }

// segmentFunc runs one segment's operations, logging each; failures go
// to the workload's checker.
type segmentFunc func(log *opLog)

// measure runs the segments back to back with a calibration point
// before, between and after them, so the reference kernel never runs
// beside load.
func measure(rc *runCtx, s sut, segs []segmentFunc) (*measured, error) {
	m := &measured{setup: rc.setup}
	h0, err := s.heap()
	if err != nil {
		return nil, err
	}
	log := &opLog{}
	rc.cal.point()
	for _, seg := range segs {
		cpu0, self0, t0 := s.cpu(), selfCPU(), time.Now()
		seg(log)
		m.seg = append(m.seg, msSince(t0)-ms(rc.takeExcluded()))
		m.cpu += ms(s.cpu() - cpu0)
		m.clientCPU += ms(selfCPU() - self0)
		rc.cal.point()
	}
	h1, err := s.heap()
	if err != nil {
		return nil, err
	}
	// The child's pause total is an estimate (see child.heap) and need
	// not grow; the other two are running totals.
	m.heap = heapCounters{mallocs: h1.mallocs - h0.mallocs, bytes: h1.bytes - h0.bytes, pauseNs: max(h1.pauseNs, h0.pauseNs) - h0.pauseNs}
	if m.liveHeap, err = s.liveHeapMiB(); err != nil {
		return nil, err
	}
	if m.peakRSS, err = peakRSSMiB(s.pid()); err != nil {
		return nil, err
	}
	m.ops, m.lat, m.scale = len(log.lat), log.lat, rc.cal.scale()
	return m, nil
}

// setUp runs the workload's set-up three times, each between two
// calibration points, and undoes every repetition but the last (teardown
// may be nil); setup_s is the median. What the last repetition built is
// what the measured phase runs on.
func (rc *runCtx) setUp(setup func() error, teardown func()) error {
	n := 3
	if rc.quick {
		n = 1
	}
	rc.cal.point()
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		rc.setup = append(rc.setup, time.Since(t0).Seconds())
		rc.cal.point()
	}
	return nil
}

// shuffledSegments is the operation list of a workload whose segments
// all hold the same mix: per segment, a seed-drawn permutation of mix.
func shuffledSegments(seed int64, segments int, mix []int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, segments)
	for s := range out {
		seg := append([]int(nil), mix...)
		rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
		out[s] = seg
	}
	return out
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func msSince(t time.Time) float64 { return ms(time.Since(t)) }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timings derives the five timing metrics with every duration
// multiplied by scale.
func (m *measured) timings(scale float64) map[string]float64 {
	lat := sortedCopy(m.lat)
	n := float64(m.ops)
	return map[string]float64{
		"setup_s":          median(m.setup) * scale,
		"throughput_ops_s": n / (sum(m.seg) * scale / 1000),
		"latency_p50_ms":   quantile(lat, 0.50) * scale,
		"latency_p95_ms":   quantile(lat, 0.95) * scale,
		"cpu_ms_per_op":    m.cpu * scale / n,
	}
}

// endToEnd derives the eight end-to-end metrics, identically for every
// workload: the timings on the reference machine, and the counts.
func (m *measured) endToEnd() map[string]float64 {
	out := m.timings(m.scale)
	n := float64(m.ops)
	out["allocs_per_op"] = float64(m.heap.mallocs) / n
	out["alloc_kb_per_op"] = float64(m.heap.bytes) / 1024 / n
	out["live_heap_mb"] = m.liveHeap
	return out
}

// rawLayer is the raw.* block: the same timings as measured, without
// calibration, so the two can be compared.
func (m *measured) rawLayer(out map[string]float64) {
	for name, v := range m.timings(1) {
		out["raw."+name] = v
	}
	out["harness.client_cpu_ms_per_op"] = m.clientCPU / float64(m.ops)
	out["proc.peak_rss_mb"] = m.peakRSS
}

// fnv64 is FNV-1a over b continuing from h (fnvOffset to start); inline
// so that fingerprinting every reply of a serving workload allocates
// nothing.
func fnv64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// digest folds strings into one 64-bit fingerprint; op lists and
// results are compared through it.
func digest(parts ...string) uint64 {
	h := uint64(fnvOffset)
	for _, p := range parts {
		h = fnv64(fnv64(h, []byte(p)), []byte{0})
	}
	return h
}

// checker counts failed operations and violated guards, and remembers
// the first few for the report.
type checker struct {
	failed int
	notes  []string
}

func (c *checker) failf(format string, args ...any) {
	c.failed++
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}
