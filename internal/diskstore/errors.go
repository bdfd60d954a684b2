// Typed failure taxonomy for the storage layers. Before this existed,
// every I/O failure was a one-off fmt.Errorf: callers could not tell a
// flaky read (worth retrying) from corrupt bytes (never worth
// retrying) without sniffing message text. The two sentinels split the
// space:
//
//   - ErrTransient: the operation may succeed if reissued — the device
//     hiccuped, the syscall was interrupted, the read came back short.
//     The disk-index hot path retries these with RetryPolicy.
//   - ErrCorrupt: the bytes are wrong — checksum mismatch, malformed
//     framing, values that contradict the resident metadata. Retrying
//     re-reads the same wrong bytes; the only correct reactions are
//     failing the query and surfacing the counter.
//
// internal/index wraps its own format errors in index.ErrCorrupt
// (which also wraps this package's classification helpers into its
// block layer); the serving layers map both onto degraded modes
// instead of process death.

package diskstore

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"syscall"
	"time"
)

// ErrTransient marks an I/O failure that may succeed on retry.
// Classified errors wrap it, so callers test with errors.Is.
var ErrTransient = errors.New("transient I/O failure")

// ErrCorrupt marks on-disk bytes that failed validation (checksum,
// framing, cross-checks). Never retried.
var ErrCorrupt = errors.New("corrupt data on disk")

// IsTransient reports whether err looks like a fault worth retrying:
// anything already classified as ErrTransient, the classic transient
// errnos (EIO, EINTR, EAGAIN, ETIMEDOUT), short reads
// (io.ErrUnexpectedEOF / io.EOF from ReadAt), and net-style timeouts.
// Corruption is never transient: re-reading wrong bytes yields the
// same wrong bytes.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	for _, t := range []error{syscall.EIO, syscall.EINTR, syscall.EAGAIN, syscall.ETIMEDOUT, io.ErrUnexpectedEOF, io.EOF} {
		if errors.Is(err, t) {
			return true
		}
	}
	var to interface{ Timeout() bool }
	if errors.As(err, &to) && to.Timeout() {
		return true
	}
	return false
}

// RetryPolicy bounds how the hot path retries transient faults:
// Attempts total tries with jittered exponential backoff between them,
// aborting early when ctx dies. The zero value means the defaults.
type RetryPolicy struct {
	// Attempts is the total number of tries including the first.
	// Non-positive means DefaultRetryAttempts; 1 disables retry.
	Attempts int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it, with up to 50% random jitter added so
	// concurrent retriers do not stampede in lockstep. Non-positive
	// means DefaultRetryBackoff.
	Backoff time.Duration
	// MaxBackoff caps the per-retry delay. Non-positive means
	// DefaultMaxRetryBackoff.
	MaxBackoff time.Duration
}

// Defaults for RetryPolicy's zero values. The base backoff is tiny on
// purpose: the faults this retries are device hiccups measured in
// microseconds, and three quick retries either clear them or prove
// them persistent — queries should not hang for human-scale timeouts.
const (
	DefaultRetryAttempts   = 3
	DefaultRetryBackoff    = 500 * time.Microsecond
	DefaultMaxRetryBackoff = 20 * time.Millisecond
)

func (p RetryPolicy) resolved() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetryAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultRetryBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxRetryBackoff
	}
	return p
}

// Do runs op up to p.Attempts times, sleeping a jittered exponential
// backoff between tries, and retrying only while IsTransient(err).
// It returns the retry count (attempts beyond the first) alongside the
// final error; a nil ctx means no cancellation. The last transient
// error is wrapped with ErrTransient so callers can classify the
// exhausted case with errors.Is.
func (p RetryPolicy) Do(ctx context.Context, op func() error) (retries int, err error) {
	p = p.resolved()
	delay := p.Backoff
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !IsTransient(err) {
			return retries, err
		}
		if attempt >= p.Attempts {
			if !errors.Is(err, ErrTransient) {
				err = &transientError{err}
			}
			return retries, err
		}
		// Jittered sleep, aborted by ctx. Full jitter on the upper half:
		// delay/2 + rand(delay/2).
		d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		if ctx != nil {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return retries, ctx.Err()
			}
		} else {
			time.Sleep(d)
		}
		if delay *= 2; delay > p.MaxBackoff {
			delay = p.MaxBackoff
		}
		retries++
	}
}

// transientError wraps an exhausted retryable failure so errors.Is
// finds ErrTransient without losing the original error chain.
type transientError struct{ err error }

func (e *transientError) Error() string {
	return "transient I/O failure (retries exhausted): " + e.err.Error()
}
func (e *transientError) Unwrap() []error {
	return []error{ErrTransient, e.err}
}
