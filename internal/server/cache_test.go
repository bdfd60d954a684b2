package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	blogclusters "repro"
	"repro/internal/core"
)

func fillWith(status int, body string) func(context.Context) (*cacheEntry, error) {
	return func(context.Context) (*cacheEntry, error) {
		return &cacheEntry{status: status, body: []byte(body)}, nil
	}
}

// TestCacheLRUEviction proves the byte bound holds: inserting past the
// budget evicts from the least-recently-used tail, and touching an
// entry protects it.
func TestCacheLRUEviction(t *testing.T) {
	body := strings.Repeat("x", 256)
	perEntry := (&cacheEntry{body: []byte(body)}).size("k0")
	c := newResponseCache(3 * perEntry)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, st, _ := c.Do(ctx, []byte(fmt.Sprintf("k%d", i)), fillWith(200, body)); st != cacheMiss {
			t.Fatalf("insert %d: state %v, want miss", i, st)
		}
	}
	// Touch k0 so k1 is the LRU tail when k3 arrives.
	if _, st, _ := c.Do(ctx, []byte("k0"), fillWith(200, "fresh")); st != cacheHit {
		t.Fatalf("k0 should be resident, got %v", st)
	}
	if _, st, _ := c.Do(ctx, []byte("k3"), fillWith(200, body)); st != cacheMiss {
		t.Fatalf("k3 insert: state %v, want miss", st)
	}
	if _, st, _ := c.Do(ctx, []byte("k1"), fillWith(200, body)); st != cacheMiss {
		t.Fatal("k1 survived eviction; LRU order broken")
	}
	if _, st, _ := c.Do(ctx, []byte("k0"), fillWith(200, "fresh")); st != cacheHit {
		t.Fatal("recently-used k0 was evicted")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats %+v, want evictions", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
}

// TestCacheRefusesNon200AndErrors pins what never lands in the cache:
// error fills, non-200 entries, and entries bigger than the whole
// budget.
func TestCacheRefusesNon200AndErrors(t *testing.T) {
	c := newResponseCache(1 << 10)
	ctx := context.Background()

	// Probes refill with a 502 (itself uncacheable), so a miss proves
	// the case under test left nothing behind.
	probe := fillWith(502, "probe")

	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, []byte("err"), func(context.Context) (*cacheEntry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("fill error not surfaced: %v", err)
	}
	if _, st, _ := c.Do(ctx, []byte("err"), probe); st != cacheMiss {
		t.Fatal("error fill was cached")
	}

	c.Do(ctx, []byte("400"), fillWith(400, "bad"))
	if _, st, _ := c.Do(ctx, []byte("400"), probe); st != cacheMiss {
		t.Fatal("non-200 entry was cached")
	}

	huge := strings.Repeat("x", 2<<10)
	c.Do(ctx, []byte("huge"), fillWith(200, huge))
	if _, st, _ := c.Do(ctx, []byte("huge"), fillWith(200, huge)); st != cacheMiss {
		t.Fatal("over-budget entry was cached")
	}
	if got := c.Stats().Entries; got != 0 {
		t.Fatalf("%d resident entries, want 0", got)
	}
}

// TestCacheBypass pins the disabled mode: no residency, no
// single-flight, every call runs its own fill.
func TestCacheBypass(t *testing.T) {
	c := newResponseCache(0)
	ctx := context.Background()
	calls := 0
	for i := 0; i < 3; i++ {
		_, st, err := c.Do(ctx, []byte("k"), func(context.Context) (*cacheEntry, error) {
			calls++
			return &cacheEntry{status: 200, body: []byte("b")}, nil
		})
		if err != nil || st != cacheBypass {
			t.Fatalf("bypass call %d: state %v err %v", i, st, err)
		}
	}
	if calls != 3 {
		t.Fatalf("%d fills, want 3 (no caching when disabled)", calls)
	}
	if st := c.Stats(); st.Bypass != 3 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheSingleFlightUncacheable pins that single-flight does not
// depend on residency: an over-budget 200 response is shared with all
// concurrent waiters through the in-flight rendezvous — one fill, not
// one per waiter — even though nothing lands in the LRU.
func TestCacheSingleFlightUncacheable(t *testing.T) {
	c := newResponseCache(64) // far below the body size
	ctx := context.Background()
	huge := strings.Repeat("x", 1<<10)
	var mu sync.Mutex
	fills := 0
	gate := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	var arrived atomic.Int32
	results := make([]*cacheEntry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived.Add(1)
			e, _, err := c.Do(ctx, []byte("big"), func(context.Context) (*cacheEntry, error) {
				mu.Lock()
				fills++
				mu.Unlock()
				<-gate
				return &cacheEntry{status: 200, body: []byte(huge)}, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			results[i] = e
		}(i)
	}
	// Hold the fill until every caller is inside Do: one that arrives
	// after the fill has finished starts a burst of its own (nothing is
	// resident), which is correct and not what this test is about.
	for arrived.Load() < n {
		runtime.Gosched()
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()

	if fills != 1 {
		t.Fatalf("%d fills for one burst of identical uncacheable queries, want 1", fills)
	}
	for i, e := range results {
		if e == nil || len(e.body) != len(huge) {
			t.Fatalf("result %d not shared: %v", i, e)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("over-budget entry became resident: %+v", st)
	}
}

// TestCacheSingleFlightWaiters hammers one cold key from many
// goroutines: exactly one fill runs, everyone gets its bytes.
func TestCacheSingleFlightWaiters(t *testing.T) {
	c := newResponseCache(1 << 20)
	ctx := context.Background()
	var mu sync.Mutex
	fills := 0
	gate := make(chan struct{})
	fill := func(context.Context) (*cacheEntry, error) {
		mu.Lock()
		fills++
		mu.Unlock()
		<-gate
		return &cacheEntry{status: 200, body: []byte("shared")}, nil
	}

	const n = 32
	var wg sync.WaitGroup
	results := make([]*cacheEntry, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := c.Do(ctx, []byte("hot"), fill)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			results[i] = e
		}(i)
	}
	// Let the filler start and the waiters pile up, then release.
	for {
		mu.Lock()
		started := fills > 0
		mu.Unlock()
		if started {
			break
		}
	}
	close(gate)
	wg.Wait()

	if fills != 1 {
		t.Fatalf("%d fills for one hot key, want 1", fills)
	}
	for i, e := range results {
		if e == nil || string(e.body) != "shared" {
			t.Fatalf("result %d: %v", i, e)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats %+v, want 1 miss / %d hits", st, n-1)
	}
}

// TestCacheResetDetachesFills: a fill in flight across reset is
// returned to its caller but stores nothing and leaves the key's
// in-flight slot to the fill that began after the reset, which stores
// its entry once.
func TestCacheResetDetachesFills(t *testing.T) {
	c := newResponseCache(1 << 20)
	ctx := context.Background()
	started := make(chan struct{})
	gate := func(body string, release chan struct{}) func(context.Context) (*cacheEntry, error) {
		return func(context.Context) (*cacheEntry, error) {
			started <- struct{}{}
			<-release
			return &cacheEntry{status: 200, body: []byte(body)}, nil
		}
	}
	do := func(fill func(context.Context) (*cacheEntry, error)) <-chan string {
		out := make(chan string, 1)
		go func() {
			e, _, err := c.Do(ctx, []byte("k"), fill)
			if err != nil {
				t.Error(err)
				out <- ""
				return
			}
			out <- string(e.body)
		}()
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("the fill never started: the call joined another fill")
		}
		return out
	}

	releaseOld, releaseNew := make(chan struct{}), make(chan struct{})
	old := do(gate("old", releaseOld))
	c.reset()
	cur := do(gate("new", releaseNew))
	close(releaseOld)
	if got := <-old; got != "old" {
		t.Fatalf("detached fill returned %q, want old", got)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 2 {
		t.Fatalf("after the detached fill: %+v, want no entry and 2 misses", st)
	}
	close(releaseNew)
	if got := <-cur; got != "new" {
		t.Fatalf("fill after reset returned %q, want new", got)
	}
	e, state, _ := c.Do(ctx, []byte("k"), fillWith(200, "refill"))
	want := (&cacheEntry{body: []byte("new")}).size("k")
	if st := c.Stats(); state != cacheHit || string(e.body) != "new" || st.Entries != 1 || st.Bytes != want {
		t.Fatalf("Do after both fills: %s %q, stats %+v; want a hit on new, one entry of %d bytes", state, e.body, st, want)
	}
}

func TestCacheKeyUnifiesSpellings(t *testing.T) {
	// Equivalent spellings of the same query must share one key.
	same := [][2]blogclusters.QuerySpec{
		{
			{K: 5, L: -3},
			{Variant: core.VariantTopK, Algorithm: core.AlgorithmAuto, K: 5, L: -1},
		},
		{
			{Variant: core.VariantDiverse, K: 3, L: 2, Mode: "distinct-prefix"},
			{Variant: core.VariantDiverse, Algorithm: "auto", K: 3, L: 2, Mode: "prefix"},
		},
		{
			{Variant: core.VariantNormalized, K: 2},
			{Variant: core.VariantNormalized, K: 2, LMin: 2, L: 9, Mode: "suffix"},
		},
		// auto, empty and the resolved name are one query.
		{
			{K: 5, L: 3},
			{Algorithm: "bfs", K: 5, L: 3},
		},
		{
			{Variant: core.VariantNormalized, Algorithm: "auto", K: 2},
			{Variant: core.VariantNormalized, Algorithm: "normalized", K: 2},
		},
		{
			{Variant: core.VariantDiverse, K: 3, L: 2},
			{Variant: core.VariantDiverse, Algorithm: "bfs", K: 3, L: 2},
		},
	}
	for i, pair := range same {
		if a, b := keyOf(opStableClusters, 0, pair[0].Normalize()), keyOf(opStableClusters, 0, pair[1].Normalize()); a != b {
			t.Errorf("pair %d: keys differ: %q vs %q", i, a, b)
		}
	}
	// Genuinely different queries must not collide.
	distinct := []blogclusters.QuerySpec{
		{K: 5, L: 3},
		{K: 5, L: -1},
		{Algorithm: "dfs", K: 5, L: 3},
		{K: 6, L: 3},
		{Variant: core.VariantNormalized, K: 5},
		{Variant: core.VariantDiverse, K: 5, L: 3},
		{Variant: core.VariantDiverse, K: 5, L: 3, Mode: "suffix"},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		key := keyOf(opStableClusters, 0, s.Normalize())
		if j, ok := seen[key]; ok {
			t.Errorf("specs %d and %d collide on key %q", j, i, key)
		}
		seen[key] = i
	}
}
