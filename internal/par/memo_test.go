package par

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/raceflag"
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

// TestMemoUncontendedFillAllocatesNothing: a fill no other caller
// waits on makes no channel, so a build that fills one memo per
// interval costs no allocation per interval for the single flight.
func TestMemoUncontendedFillAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	cells := make([]Memo[int], 101)
	i := 0
	n := testing.AllocsPerRun(100, func() {
		cells[i].Get(ctx, func() (int, error) { return i, nil })
		i++
	})
	if n != 0 {
		t.Fatalf("an uncontended fill allocates %v times, want 0", n)
	}
}
