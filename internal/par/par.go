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

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines and returns the lowest-index error, or nil. After any task
// fails no new task is started (in-flight tasks finish), so a failure
// on a long run does not burn through the remaining work. workers <= 1
// (or n <= 1) runs sequentially on the calling goroutine, stopping at
// the first error, with no goroutine.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach with cancellation: once ctx is done no new task
// is started (in-flight tasks finish) and ctx.Err() is returned unless
// an earlier task error takes precedence. Cancellation between tasks is
// the pool's responsibility; cancellation *inside* a long fn is the
// callee's (pass ctx down).
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
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
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	indexCh := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range indexCh {
				if failed.Load() {
					continue
				}
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
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
