package par

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestMemoFillsOnceAndNeverCachesAnError pins Memo's contract: a failed
// fill leaves the cell empty, concurrent callers share one successful
// fill, and later callers hit without filling.
func TestMemoFillsOnceAndNeverCachesAnError(t *testing.T) {
	var m Memo[int]
	boom := errors.New("boom")
	if _, err := m.Get(t.Context(), func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("failed fill returned %v, want %v", err, boom)
	}
	if _, ok := m.Cached(); ok {
		t.Fatal("a failed fill was cached")
	}

	var mu sync.Mutex
	fills := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Get(t.Context(), func() (int, error) {
				mu.Lock()
				fills++
				mu.Unlock()
				<-gate
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("Get = %d, %v; want 7, nil", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if v, ok := m.Cached(); !ok || v != 7 {
		t.Fatalf("Cached = %d, %v; want 7, true", v, ok)
	}
	if _, err := m.Get(t.Context(), func() (int, error) { return 0, boom }); err != nil {
		t.Fatalf("a resident value filled again: %v", err)
	}
	if fills != 1 {
		t.Fatalf("%d fills for concurrent callers, want 1", fills)
	}
}

// TestMemoWaiterHonorsItsContext checks a caller waiting on another's
// fill returns when its own context ends.
func TestMemoWaiterHonorsItsContext(t *testing.T) {
	var m Memo[int]
	started, release := make(chan struct{}), make(chan struct{})
	go m.Get(context.Background(), func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Get(ctx, func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v, want context.Canceled", err)
	}
	close(release)
}
