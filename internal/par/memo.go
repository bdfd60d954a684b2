package par

import (
	"context"
	"sync"
)

// Memo is a concurrency-safe, context-aware, single-flight lazy cell:
// the first caller fills it, concurrent callers wait for that fill and
// share its result, later callers hit. Only successful results are
// cached: a fill that fails — cancellation, a shard briefly
// unreachable, a transient I/O fault that outlived its retries — leaves
// the cell empty, so the next caller fills again instead of replaying a
// stale error forever. Waiters honor their own context, so one slow
// fill cannot pin an unrelated request past its deadline. The zero
// Memo is empty and ready to use.
type Memo[T any] struct {
	mu       sync.Mutex
	done     bool
	val      T
	inflight chan struct{} // non-nil while a fill is in flight
}

// Prime seeds the cell with a ready value, without a fill.
func (m *Memo[T]) Prime(v T) {
	m.mu.Lock()
	m.done, m.val = true, v
	m.mu.Unlock()
}

// Cached returns the value if one is resident, without filling.
func (m *Memo[T]) Cached() (T, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.val, m.done
}

// Get returns the resident value, or runs fill on the calling goroutine
// when no fill is in flight, or waits for the one that is and re-checks.
func (m *Memo[T]) Get(ctx context.Context, fill func() (T, error)) (T, error) {
	for {
		m.mu.Lock()
		if m.done {
			v := m.val
			m.mu.Unlock()
			return v, nil
		}
		if ch := m.inflight; ch != nil {
			m.mu.Unlock()
			select {
			case <-ch:
				continue // re-check: done, or a failed fill → fill again
			case <-ctx.Done():
				var zero T
				return zero, ctx.Err()
			}
		}
		ch := make(chan struct{})
		m.inflight = ch
		m.mu.Unlock()

		v, err := fill()
		m.mu.Lock()
		m.inflight = nil
		if err == nil {
			m.done, m.val = true, v
		}
		m.mu.Unlock()
		close(ch)
		return v, err
	}
}
