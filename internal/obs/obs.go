// Package obs carries per-request observability state through
// contexts: the request id that ties one query's access-log lines
// together across coordinator→shard HTTP hops, and the span recorder
// behind ?trace=1 — every layer (server handlers, Engine stage builds,
// shard fan-out hops) appends spans to the recorder it finds in the
// context, and the serving layer renders them into the response's
// trace block. Both are nil-safe no-ops when the context carries
// nothing, so instrumented code paths cost two context lookups on
// untraced requests.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

type ctxKey int

const (
	requestIDKey ctxKey = iota
	recorderKey
)

// --- request ids ---

// idPrefix is a per-process random prefix so ids from different
// processes cannot collide; the cheap per-request suffix is an atomic
// counter (request ids need uniqueness, not unpredictability, and the
// hot path must not pay a crypto/rand read per request).
var idPrefix = func() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000ff"
	}
	return hex.EncodeToString(b[:])
}()

var idCounter atomic.Int64

// NewRequestID mints a process-unique request id.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06x", idPrefix, idCounter.Add(1))
}

// WithRequestID returns ctx carrying the id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the id carried by ctx, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// --- trace spans ---

// Span is one timed unit of work inside a traced request: an Engine
// stage build, a solver run, a shard hop. Offsets are relative to the
// recorder's creation (the start of request handling) so a client can
// reconstruct the waterfall without clock agreement.
type Span struct {
	// Name identifies the work: an Engine stage ("clusters", "graph"),
	// "solve:<algorithm>", or "shard<N>.<method>" for a fan-out hop.
	Name string `json:"name"`
	// StartUs/DurUs are microseconds from the recorder epoch / duration.
	StartUs int64 `json:"start_us"`
	DurUs   int64 `json:"dur_us"`
	// Err carries a hop's failure; successful spans omit it.
	Err string `json:"err,omitempty"`
	// Work is the counted work behind the span, encoded as its own JSON:
	// a finished solve:<algorithm> span carries the solver's core.Stats.
	// Spans with nothing counted omit it.
	Work any `json:"work,omitempty"`
}

// Recorder accumulates spans for one traced request. Safe for
// concurrent use — shard fan-outs append from many goroutines.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// WithRecorder returns ctx carrying a fresh recorder (epoch now) and
// the recorder itself.
func WithRecorder(ctx context.Context) (context.Context, *Recorder) {
	r := &Recorder{epoch: time.Now()}
	return context.WithValue(ctx, recorderKey, r), r
}

// RecorderFrom returns the recorder carried by ctx, or nil.
func RecorderFrom(ctx context.Context) *Recorder {
	r, _ := ctx.Value(recorderKey).(*Recorder)
	return r
}

// Record appends one finished span; start is its wall-clock begin.
// Safe on a nil recorder (the untraced path).
func (r *Recorder) Record(name string, start time.Time, err error) {
	r.RecordWork(name, start, err, nil)
}

// RecordWork is Record for a span that carries its counted work. A
// caller on a hot path checks for a recorder before it builds work, so
// an untraced request pays nothing for it.
func (r *Recorder) RecordWork(name string, start time.Time, err error, work any) {
	if r == nil {
		return
	}
	sp := Span{
		Name:    name,
		StartUs: start.Sub(r.epoch).Microseconds(),
		DurUs:   time.Since(start).Microseconds(),
		Work:    work,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// Spans snapshots the recorded spans in append order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}
