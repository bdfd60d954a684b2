// Degradation plumbing: the pieces that keep one Server useful while
// things around it fail. A panic in a handler becomes a 500 and a log
// record, not a dead process (middleware.go); an Engine that errors
// repeatedly on one route trips that route's circuit breaker so the
// failing path sheds fast instead of burning admission slots; cached
// answers keep serving through an Engine outage (cache.go); and the
// whole picture is summarized as a three-state health model —
// ok / degraded / failing — on /readyz and /debug/stats.
package server

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// retryAfterSeconds derives the Retry-After hint every shedding path
// shares (admission 429s, not-ready 503s, breaker 503s) from the
// request timeout: half the timeout, rounded up, clamped to [1,30]
// seconds. One load knob, one coherent backoff story — not three
// hardcoded "1"s that stay wrong when the timeout changes.
func retryAfterSeconds(timeout time.Duration) string {
	secs := int(math.Ceil(timeout.Seconds() / 2))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// Breaker tuning. The window is deliberately small: these routes fan
// into multi-second Engine builds, so shedding after ~10 observed
// failures beats sampling hundreds of them first.
const (
	breakerWindow     = 20  // outcomes remembered per route
	breakerMinSamples = 10  // don't judge a route on fewer
	breakerFailRatio  = 0.5 // trip at >= half the window failing
	// DefaultBreakerCooldown is how long an open breaker sheds before
	// letting one probe through (Config.BreakerCooldown overrides).
	DefaultBreakerCooldown = 5 * time.Second
)

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one route's error-rate circuit breaker. Closed: requests
// flow, outcomes fill a ring; at >= breakerFailRatio failures over >=
// breakerMinSamples it opens. Open: requests shed with 503 +
// Retry-After until the cooldown passes. Half-open: exactly one probe
// runs; success recloses (fresh window), failure reopens the clock.
// Only 5xx outcomes count as failures — 4xx is the client's fault and
// a canceled request (499) proves nothing about the route.
type breaker struct {
	mu       sync.Mutex
	cooldown time.Duration

	outcomes [breakerWindow]bool // true = failure
	n, idx   int
	fails    int

	state    breakerState
	openedAt time.Time
	probing  bool
	trips    int64
}

// allow reports whether a request may proceed now.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds one completed (allowed) request's outcome back.
func (b *breaker) record(fail bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.probing = false
		if fail {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.trips++
		} else {
			b.state = breakerClosed
			b.n, b.idx, b.fails = 0, 0, 0
		}
		return
	case breakerOpen:
		// A request admitted just before the trip finished late; its
		// outcome no longer matters.
		return
	}
	if b.n == breakerWindow {
		if b.outcomes[b.idx] {
			b.fails--
		}
	} else {
		b.n++
	}
	b.outcomes[b.idx] = fail
	if fail {
		b.fails++
	}
	b.idx = (b.idx + 1) % breakerWindow
	if b.n >= breakerMinSamples && float64(b.fails) >= breakerFailRatio*float64(b.n) {
		b.state = breakerOpen
		b.openedAt = time.Now()
		b.trips++
		b.n, b.idx, b.fails = 0, 0, 0
	}
}

// snapshot returns the state name for /debug/stats.
func (b *breaker) snapshot() (state string, trips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.trips
}

// breakerFor returns (creating on first use) the breaker of one route.
func (s *Server) breakerFor(route string) *breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b, ok := s.breakers[route]
	if !ok {
		b = &breaker{cooldown: s.cfg.BreakerCooldown}
		s.breakers[route] = b
	}
	return b
}

// breakerStates snapshots every route's breaker for stats and health.
func (s *Server) breakerStates() map[string]string {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	out := make(map[string]string, len(s.breakers))
	for route, b := range s.breakers {
		state, _ := b.snapshot()
		out[route] = state
	}
	return out
}

// Health states: failing means the service cannot answer queries at
// all (no Engine: still loading, or the open failed); degraded means
// it answers but some route's breaker is shedding; ok is everything
// else. /readyz maps failing to 503 and both other states to 200 —
// a degraded server is still worth routing to.
const (
	healthOK       = "ok"
	healthDegraded = "degraded"
	healthFailing  = "failing"
)

// health computes the three-state summary and a human reason for the
// non-ok states.
func (s *Server) health() (state, reason string) {
	if s.Session() == nil {
		if p := s.openErr.Load(); p != nil {
			return healthFailing, "engine open failed: " + p.err.Error()
		}
		return healthFailing, "corpus is still loading"
	}
	var shedding []string
	for route, st := range s.breakerStates() {
		if st != "closed" {
			shedding = append(shedding, route)
		}
	}
	if len(shedding) > 0 {
		sort.Strings(shedding)
		return healthDegraded, "circuit breaker shedding: " + joinRoutes(shedding)
	}
	return healthOK, ""
}

func joinRoutes(routes []string) string {
	out := routes[0]
	for _, r := range routes[1:] {
		out += ", " + r
	}
	return out
}
