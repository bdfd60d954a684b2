package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// operation share OpID; Parent is the index of the enclosing span in
// the recorder (-1 for an operation's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so measured (untraced) runs share the call sites.
// It is used from the harness goroutine only.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
	opID  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// beginOp starts a new operation: spans opened until the matching end
// carry its id.
func (r *recorder) beginOp() {
	if r != nil {
		r.opID++
	}
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, OpID: r.opID})
	r.stack = append(r.stack, idx)
	return func() {
		r.spans[idx].End = int64(time.Since(r.epoch))
		r.stack = r.stack[:len(r.stack)-1]
	}
}

// add records a span that was timed elsewhere (by a load-generator
// goroutine of its own) as the root of the current operation.
func (r *recorder) add(name string, start, end int64) {
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: -1, OpID: r.opID})
}

// nest records a chain of spans, each inside the previous, centred in
// the most recent span and clipped so that no child outlasts its
// parent. Durations measured on the serving workloads' in-process twin
// thus become the modelled decomposition of the socket round trip they
// belong to; a zero duration ends the chain.
func (r *recorder) nest(names []string, durs []time.Duration) {
	parent := len(r.spans) - 1
	for i, name := range names {
		p := r.spans[parent]
		d := min(int64(durs[i]), p.End-p.Start)
		if d <= 0 {
			return
		}
		mid := (p.Start + p.End) / 2
		r.spans = append(r.spans, span{Name: name, Start: mid - d/2, End: mid - d/2 + d, Parent: parent, OpID: p.OpID})
		parent = len(r.spans) - 1
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (children may overlap each
// other; the covered part is the union of their intervals clipped to
// the parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the module name before the
// first dot ("core.bfs" → "core").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByLayer sums self time per layer, in milliseconds.
func selfByLayer(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += float64(d) / 1e6
	}
	return out
}

// writeJSONL writes the spans, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
