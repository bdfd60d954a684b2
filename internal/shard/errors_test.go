package shard_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	blogclusters "repro"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestPushValidation checks the coordinator applies the single-engine
// sequencing rules itself, with the same sentinels.
func TestPushValidation(t *testing.T) {
	col := equivCollection(t, 4)
	c := openCoordinator(t, col, 2, "inproc")
	ctx := context.Background()

	_, err := c.Push(ctx, blogclusters.Interval{Index: 9, Label: "skip"})
	if !errors.Is(err, blogclusters.ErrOutOfOrderInterval) {
		t.Errorf("out-of-order push: got %v, want ErrOutOfOrderInterval", err)
	}

	bad := blogclusters.Interval{Index: 4, Label: "bad docs"}
	bad.Docs = []blogclusters.Document{{ID: 1, Interval: 2, Keywords: []string{"alpha"}}}
	_, err = c.Push(ctx, bad)
	if !errors.Is(err, blogclusters.ErrMalformedInterval) {
		t.Errorf("doc claiming wrong interval: got %v, want ErrMalformedInterval", err)
	}

	if got := c.Generation(); got != 1 {
		t.Errorf("generation moved to %d on rejected pushes", got)
	}
}

// TestQueryValidation checks routed and ranged queries reject bad
// intervals with ErrInvalidQuery, like the Engine.
func TestQueryValidation(t *testing.T) {
	col := equivCollection(t, 4)
	c := openCoordinator(t, col, 2, "inproc")
	ctx := context.Background()

	if _, err := c.Search(ctx, []string{"alpha"}, -1); !errors.Is(err, blogclusters.ErrInvalidQuery) {
		t.Errorf("search interval -1: got %v, want ErrInvalidQuery", err)
	}
	if _, err := c.Refine(ctx, "alpha", 4); !errors.Is(err, blogclusters.ErrInvalidQuery) {
		t.Errorf("refine interval 4: got %v, want ErrInvalidQuery", err)
	}
	if _, err := c.Correlations(ctx, "alpha", 99, 5); !errors.Is(err, blogclusters.ErrInvalidQuery) {
		t.Errorf("correlations interval 99: got %v, want ErrInvalidQuery", err)
	}
	if _, err := c.ClusterSets(ctx, 2, 1); !errors.Is(err, blogclusters.ErrInvalidQuery) {
		t.Errorf("cluster sets [2,1): got %v, want ErrInvalidQuery", err)
	}
	if _, err := c.Solve(ctx, blogclusters.QuerySpec{Variant: "topk", K: 0, L: 2}); !errors.Is(err, blogclusters.ErrInvalidQuery) {
		t.Errorf("solve k=0: got %v, want ErrInvalidQuery", err)
	}
}

// TestClosedCoordinator checks queries after Close fail with
// ErrEngineClosed, like a closed Engine.
func TestClosedCoordinator(t *testing.T) {
	col := equivCollection(t, 4)
	c := openCoordinator(t, col, 2, "inproc")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TimeSeries(context.Background(), "alpha"); !errors.Is(err, blogclusters.ErrEngineClosed) {
		t.Errorf("query after close: got %v, want ErrEngineClosed", err)
	}
}

// TestFailClosed kills one of two HTTP shards and checks every fan-out
// query fails with ErrUnavailable instead of serving a truncated
// answer, while single-shard routes to the live shard still work.
func TestFailClosed(t *testing.T) {
	col := equivCollection(t, 4)
	subs, err := shard.SplitCollection(col, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	backends := make([]shard.Backend, 2)
	var servers [2]*httptest.Server
	for s, sub := range subs {
		eng, err := blogclusters.Open(ctx, blogclusters.FromCollection(sub), engineOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		srv := server.New(quietConfig())
		srv.SetEngine(eng)
		servers[s] = httptest.NewServer(srv.Handler())
		t.Cleanup(servers[s].Close)
		if backends[s], err = server.NewClient(servers[s].URL, servers[s].Client()); err != nil {
			t.Fatal(err)
		}
	}
	c, err := shard.NewCoordinator(ctx, backends, coordOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	servers[1].Close() // shard 1 goes dark

	if _, err := c.TimeSeries(ctx, "alpha"); !errors.Is(err, shard.ErrUnavailable) {
		t.Errorf("timeseries with dead shard: got %v, want ErrUnavailable", err)
	}
	if _, err := c.Solve(ctx, blogclusters.QuerySpec{Variant: "topk", K: 3, L: 2}); !errors.Is(err, shard.ErrUnavailable) {
		t.Errorf("solve with dead shard: got %v, want ErrUnavailable", err)
	}
	// Interval 0 lives on the live shard: routed queries still answer.
	if _, err := c.Search(ctx, []string{"alpha"}, 0); err != nil {
		t.Errorf("search on live shard: %v", err)
	}
	// Interval 2 lives on the dead shard.
	if _, err := c.Search(ctx, []string{"alpha"}, 2); !errors.Is(err, shard.ErrUnavailable) {
		t.Errorf("search on dead shard: got %v, want ErrUnavailable", err)
	}
}

// TestHTTPStatusMapping checks the backend the coordinator reaches
// shards through folds shard response statuses back into the typed
// error taxonomy (internal/server's TestStatusSentinelsRoundTrip holds
// the table itself).
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		status int
		want   error
	}{
		{http.StatusBadRequest, blogclusters.ErrInvalidQuery},
		{http.StatusConflict, blogclusters.ErrOutOfOrderInterval},
		{http.StatusUnprocessableEntity, blogclusters.ErrMalformedInterval},
		{http.StatusNotFound, shard.ErrUnavailable},
		{http.StatusTooManyRequests, shard.ErrUnavailable},
		{http.StatusInternalServerError, shard.ErrUnavailable},
		{http.StatusServiceUnavailable, shard.ErrUnavailable},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.status), func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(tc.status)
				fmt.Fprintf(w, `{"error":"synthetic %d"}`, tc.status)
			}))
			defer ts.Close()
			b, err := server.NewClient(ts.URL, ts.Client())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Meta(context.Background()); !errors.Is(err, tc.want) {
				t.Errorf("status %d: got %v, want %v", tc.status, err, tc.want)
			}
		})
	}
}

// TestSplitValidation checks the partitioning rejects empty shards.
func TestSplitValidation(t *testing.T) {
	col := equivCollection(t, 3)
	if _, err := shard.SplitCollection(col, 4); err == nil {
		t.Error("4 shards over 3 intervals did not fail")
	}
	if _, err := shard.SplitCollection(col, 0); err == nil {
		t.Error("0 shards did not fail")
	}
	if _, err := shard.SliceCollection(col, 2, 1); err == nil {
		t.Error("inverted slice did not fail")
	}
	if _, err := shard.SliceCollection(col, 0, 4); err == nil {
		t.Error("overlong slice did not fail")
	}
}
