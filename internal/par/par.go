// Package par provides the bounded worker-pool primitive shared by the
// parallel stages (interval-cluster builds, cluster-graph edge tasks,
// shard scatter-gather). Callers slot results into index-addressed
// slices, which keeps outputs canonical at any worker count.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// ForEachCtx runs fn(i) for every i in [0, n) on at most workers
// goroutines and returns the lowest-index error, or nil. After a task
// fails no task above it is started (in-flight tasks finish), so a
// failure on a long run does not burn through the remaining work, while
// every task below it still runs: the error returned is the one a
// sequential run would return. workers <= 1 (or n <= 1) runs
// sequentially on the calling goroutine, stopping at the first error,
// with no goroutine. Once ctx is done no new task is started (in-flight
// tasks finish) and ctx.Err() is returned unless an earlier task error
// takes precedence. Cancellation between tasks is the pool's
// responsibility; cancellation *inside* a long fn is the callee's (pass
// ctx down).
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorkerCtx is ForEachCtx that also hands fn the number w of the
// worker running task i, in [0, workers), so each worker can keep its
// own scratch state from task to task. Tasks are handed out in index
// order.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(w, i int) error) error {
	done := ctx.Done()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	// failed is the lowest index that has failed so far, n while none
	// has.
	var failed atomic.Int64
	failed.Store(int64(n))
	indexCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indexCh {
				if int64(i) > failed.Load() {
					continue
				}
				if err := fn(w, i); err != nil {
					errs[i] = err
					for {
						f := failed.Load()
						if int64(i) >= f || failed.CompareAndSwap(f, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	canceled := false
dispatch:
	for i := 0; i < n; i++ {
		if done != nil {
			select {
			case <-done:
				canceled = true
				break dispatch
			default:
			}
		}
		indexCh <- i
	}
	close(indexCh)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if canceled {
		return ctx.Err()
	}
	return nil
}
