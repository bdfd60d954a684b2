// Package metrics is a dependency-free Prometheus instrumentation
// core: atomic counters, gauges and fixed-bucket histograms behind a
// Registry that renders the text exposition format (version 0.0.4) —
// HELP/TYPE headers, escaped label values, cumulative histogram
// buckets ending in +Inf. It exists so the serving layer can expose
// GET /metrics without pulling client_golang into go.mod (the module
// stays dependency-free by policy).
//
// Two usage modes coexist:
//
//   - live instruments: middleware calls Inc/Observe on the hot path
//     (lock-free atomics; safe under -race).
//   - scrape-time mirrors: values that already exist as monotone
//     counters elsewhere (cache stats, EngineStats, per-algorithm solve
//     histograms) are copied in with Set/SetHistogram just before
//     WriteTo, so one exposition path serves both without double
//     counting.
//
// Output is deterministic: families in registration order, series
// sorted by label values — scrape diffing and the smoke scripts rely
// on that.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition TYPE of a family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them. The zero value is
// not usable; create with NewRegistry.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	names map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending; +Inf implicit

	mu     sync.Mutex
	series map[string]*Series
}

// Vec is a metric family handle: resolve a concrete series with With.
type Vec struct{ f *family }

// Series is one labeled time series of a family. Counter/gauge series
// hold a single float; histogram series hold per-bucket counts plus a
// sum. All mutators are safe for concurrent use.
type Series struct {
	f         *family
	labelVals []string

	bits    atomic.Uint64 // counter/gauge value (float64 bits)
	buckets []atomic.Int64
	sumBits atomic.Uint64
	count   atomic.Int64
}

// register validates and adds a family; duplicate or malformed names
// are programmer errors and panic.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *Vec {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: buckets for %q not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("metrics: duplicate metric %q", name))
	}
	r.names[name] = true
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets, series: map[string]*Series{}}
	r.fams = append(r.fams, f)
	return &Vec{f: f}
}

// Counter registers a counter family (monotone non-decreasing).
func (r *Registry) Counter(name, help string, labels ...string) *Vec {
	return r.register(name, help, KindCounter, nil, labels)
}

// Gauge registers a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Vec {
	return r.register(name, help, KindGauge, nil, labels)
}

// Histogram registers a histogram family over the given upper bounds
// (ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Vec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	return r.register(name, help, KindHistogram, buckets, labels)
}

// DefBuckets is the default latency histogram layout, in seconds.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// With resolves the series for the given label values, creating it on
// first use. The value count must match the family's label names.
func (v *Vec) With(labelValues ...string) *Series {
	f := v.f
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	// The key is built on the stack and probed as a []byte conversion,
	// which does not allocate: only a new series makes it a string.
	var buf [128]byte
	key := buf[:0]
	for i, lv := range labelValues {
		if i > 0 {
			key = append(key, '\xff')
		}
		key = append(key, lv...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[string(key)]
	if !ok {
		s = &Series{f: f, labelVals: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			s.buckets = make([]atomic.Int64, len(f.buckets)+1)
		}
		f.series[string(key)] = s
	}
	return s
}

// Inc adds 1 to a counter or gauge series.
func (s *Series) Inc() { s.Add(1) }

// Add adds d (non-negative for counters) to a counter or gauge series.
func (s *Series) Add(d float64) {
	for {
		old := s.bits.Load()
		if s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Set overwrites the series value. For gauges, and for counters that
// mirror an external already-monotone source at scrape time — never
// for live counters.
func (s *Series) Set(v float64) { s.bits.Store(math.Float64bits(v)) }

// Observe records one measurement into a histogram series. Bucket
// slots hold per-bucket (non-cumulative) hit counts; values beyond the
// largest bound land in the final overflow slot. Rendering accumulates
// and emits the +Inf line from the total count, so both live and
// mirrored series produce monotone cumulative buckets.
func (s *Series) Observe(v float64) {
	placed := false
	for i, ub := range s.f.buckets {
		if v <= ub {
			s.buckets[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		s.buckets[len(s.buckets)-1].Add(1)
	}
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	s.count.Add(1)
}

// SetHistogram mirrors an external histogram snapshot: counts are
// per-bucket (non-cumulative) hit counts, len(counts) ==
// len(buckets)+1 with the final slot the +Inf overflow; sum is the
// total of all observed values. The series count becomes the sum of
// counts. Like Set, only for scrape-time mirroring of monotone
// sources.
func (s *Series) SetHistogram(counts []int64, sum float64) {
	if len(counts) != len(s.buckets) {
		panic(fmt.Sprintf("metrics: %q SetHistogram wants %d counts, got %d", s.f.name, len(s.buckets), len(counts)))
	}
	var total int64
	for i, c := range counts {
		s.buckets[i].Store(c)
		total += c
	}
	s.sumBits.Store(math.Float64bits(sum))
	s.count.Store(total)
}

// WriteTo renders the full exposition. Families appear in
// registration order, series sorted by label values.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		series := make([]*Series, 0, len(keys))
		sort.Strings(keys)
		for _, k := range keys {
			series = append(series, f.series[k])
		}
		f.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range series {
			s.render(&b)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func (s *Series) render(b *strings.Builder) {
	f := s.f
	switch f.kind {
	case KindCounter, KindGauge:
		b.WriteString(f.name)
		s.renderLabels(b, "", "")
		b.WriteByte(' ')
		b.WriteString(formatValue(math.Float64frombits(s.bits.Load())))
		b.WriteByte('\n')
	case KindHistogram:
		var cum int64
		for i, ub := range f.buckets {
			cum += s.buckets[i].Load()
			b.WriteString(f.name)
			b.WriteString("_bucket")
			s.renderLabels(b, "le", formatValue(ub))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(cum, 10))
			b.WriteByte('\n')
		}
		total := s.count.Load()
		b.WriteString(f.name)
		b.WriteString("_bucket")
		s.renderLabels(b, "le", "+Inf")
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(total, 10))
		b.WriteByte('\n')
		b.WriteString(f.name)
		b.WriteString("_sum")
		s.renderLabels(b, "", "")
		b.WriteByte(' ')
		b.WriteString(formatValue(math.Float64frombits(s.sumBits.Load())))
		b.WriteByte('\n')
		b.WriteString(f.name)
		b.WriteString("_count")
		s.renderLabels(b, "", "")
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(total, 10))
		b.WriteByte('\n')
	}
}

// renderLabels writes {l1="v1",...} plus an optional extra pair (the
// histogram le label); nothing when there are no labels at all.
func (s *Series) renderLabels(b *strings.Builder, extraName, extraVal string) {
	if len(s.labelVals) == 0 && extraName == "" {
		return
	}
	b.WriteByte('{')
	for i, name := range s.f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(s.labelVals[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(s.labelVals) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip float, with the special values spelled +Inf,
// -Inf and NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// validName checks the Prometheus metric/label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
