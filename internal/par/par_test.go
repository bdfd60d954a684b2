package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		const n = 37
		var hits [n]atomic.Int32
		if err := ForEach(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers %d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ForEach(10, 1, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("sequential error = %v, want %v", err, errA)
	}
}

func TestForEachStopsIssuingAfterFailure(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	err := ForEach(1000, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		// Slow the survivors so the failure flag is up long before the
		// pool could drain the full range.
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Exact counts depend on scheduling, but after the first task fails
	// the pool must stop issuing new ones.
	if got := ran.Load(); got > 100 {
		t.Fatalf("pool ran %d tasks despite an early failure", got)
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachRunsEveryTaskBelowAFailure: a failure stops only the tasks
// above it, so the error returned is the lowest one a sequential run
// would meet, however the pool interleaves.
func TestForEachRunsEveryTaskBelowAFailure(t *testing.T) {
	for _, workers := range []int{2, 8} {
		for rep := 0; rep < 20; rep++ {
			const n, bad = 64, 40
			var ran [n]atomic.Bool
			errLow, errHigh := errors.New("low"), errors.New("high")
			err := ForEach(n, workers, func(i int) error {
				ran[i].Store(true)
				switch i {
				case 3: // fails late, after the high failure is up
					time.Sleep(2 * time.Millisecond)
					return errLow
				case bad:
					return errHigh
				}
				return nil
			})
			if err != errLow {
				t.Fatalf("workers %d: err = %v, want %v", workers, err, errLow)
			}
			for i := 0; i < 3; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers %d: task %d below the failure did not run", workers, i)
				}
			}
		}
	}
}

// TestForEachWorkerOwnsItsNumber: a worker number is held by one task
// at a time, so per-worker scratch needs no lock.
func TestForEachWorkerOwnsItsNumber(t *testing.T) {
	const n, workers = 200, 4
	var busy [workers]atomic.Bool
	err := ForEachWorkerCtx(context.Background(), n, workers, func(w, i int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("task %d: worker %d outside [0,%d)", i, w, workers)
		}
		if !busy[w].CompareAndSwap(false, true) {
			return fmt.Errorf("task %d: worker %d already busy", i, w)
		}
		time.Sleep(10 * time.Microsecond)
		busy[w].Store(false)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
