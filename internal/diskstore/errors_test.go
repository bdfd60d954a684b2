package diskstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"syscall"
	"testing"
	"time"
)

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{syscall.EIO, true},
		{fmt.Errorf("read sector: %w", syscall.EIO), true},
		{syscall.EINTR, true},
		{syscall.EAGAIN, true},
		{io.ErrUnexpectedEOF, true},
		{io.EOF, true},
		{syscall.ENOSPC, false},
		{errors.New("some app error"), false},
		{fmt.Errorf("wrapped: %w", ErrTransient), true},
		{fmt.Errorf("bad bytes: %w", ErrCorrupt), false},
		// Corrupt wins over transient when both are in the chain: wrong
		// bytes are wrong no matter how they arrived.
		{fmt.Errorf("%w after %w", ErrCorrupt, syscall.EIO), false},
		{context.Canceled, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRetryPolicyRetriesTransient(t *testing.T) {
	calls := 0
	retries, err := RetryPolicy{Attempts: 5, Backoff: time.Microsecond}.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return syscall.EIO
		}
		return nil
	})
	if err != nil || calls != 3 || retries != 2 {
		t.Fatalf("Do = (retries=%d, err=%v) after %d calls, want (2, nil) after 3", retries, err, calls)
	}
}

func TestRetryPolicyDoesNotRetryPermanent(t *testing.T) {
	calls := 0
	_, err := RetryPolicy{Attempts: 5, Backoff: time.Microsecond}.Do(context.Background(), func() error {
		calls++
		return syscall.ENOSPC
	})
	if calls != 1 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("permanent error called op %d times (err=%v), want once", calls, err)
	}
	calls = 0
	_, err = RetryPolicy{Attempts: 5, Backoff: time.Microsecond}.Do(context.Background(), func() error {
		calls++
		return fmt.Errorf("bad block: %w", ErrCorrupt)
	})
	if calls != 1 || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt error called op %d times (err=%v), want once", calls, err)
	}
}

func TestRetryPolicyExhaustionWrapsErrTransient(t *testing.T) {
	calls := 0
	retries, err := RetryPolicy{Attempts: 3, Backoff: time.Microsecond}.Do(context.Background(), func() error {
		calls++
		return syscall.EIO
	})
	if calls != 3 || retries != 2 {
		t.Fatalf("exhaustion ran op %d times with %d retries, want 3/2", calls, retries)
	}
	if !errors.Is(err, ErrTransient) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("exhausted error %v should wrap both ErrTransient and the cause", err)
	}
}

func TestRetryPolicyHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	start := time.Now()
	_, err := RetryPolicy{Attempts: 10, Backoff: time.Hour}.Do(ctx, func() error {
		calls++
		cancel() // die during the first backoff sleep
		return syscall.EIO
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times after cancellation, want 1", calls)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}
