package obs

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRequestIDs: ids are unique within the process, share its prefix,
// and round-trip through a context; a bare context carries none.
func TestRequestIDs(t *testing.T) {
	const n = 1000
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("request id %q minted twice", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, idPrefix+"-") {
			t.Fatalf("request id %q lacks the process prefix %q", id, idPrefix)
		}
	}
	if got := RequestID(context.Background()); got != "" {
		t.Errorf("RequestID on a bare context = %q, want empty", got)
	}
	if got := RequestID(WithRequestID(context.Background(), "abc-000001")); got != "abc-000001" {
		t.Errorf("RequestID round trip = %q", got)
	}
}

// TestNilRecorder: the untraced path — no recorder in the context —
// records and snapshots as a no-op.
func TestNilRecorder(t *testing.T) {
	r := RecorderFrom(context.Background())
	if r != nil {
		t.Fatalf("RecorderFrom on a bare context = %v, want nil", r)
	}
	r.Record("solve:bfs", time.Now(), errors.New("ignored"))
	if spans := r.Spans(); spans != nil {
		t.Errorf("nil recorder returned spans %v", spans)
	}
}

// TestRecorderSpans: spans come back in record order with sane timings,
// the error text and work block only where one was passed, and Spans is
// a snapshot.
func TestRecorderSpans(t *testing.T) {
	ctx, r := WithRecorder(context.Background())
	if RecorderFrom(ctx) != r {
		t.Fatal("RecorderFrom did not return the context's recorder")
	}
	start := time.Now()
	r.Record("clusters", start, nil)
	r.Record("graph", start, nil)
	r.Record("shard1.solve", start, errors.New("boom"))

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %v", len(spans), spans)
	}
	for i, want := range []string{"clusters", "graph", "shard1.solve"} {
		sp := spans[i]
		if sp.Name != want {
			t.Errorf("span %d is %q, want %q (record order)", i, sp.Name, want)
		}
		if sp.StartUs < 0 || sp.DurUs < 0 {
			t.Errorf("span %q has negative timing: start %d dur %d", sp.Name, sp.StartUs, sp.DurUs)
		}
	}
	if spans[0].Err != "" || spans[1].Err != "" || spans[2].Err != "boom" {
		t.Errorf("error text misplaced: %+v", spans)
	}
	// The wire form drops the error field of a successful span.
	ok, _ := json.Marshal(spans[0])
	failed, _ := json.Marshal(spans[2])
	if strings.Contains(string(ok), `"err"`) || !strings.Contains(string(failed), `"err":"boom"`) {
		t.Errorf("span JSON: ok %s, failed %s", ok, failed)
	}

	// A span with counted work renders it as its own JSON; one without
	// omits the block.
	r.RecordWork("solve:bfs", start, nil, struct {
		EdgeReads int64 `json:"edge_reads"`
	}{42})
	worked, _ := json.Marshal(r.Spans()[3])
	if strings.Contains(string(ok), `"work"`) || !strings.Contains(string(worked), `"work":{"edge_reads":42}`) {
		t.Errorf("span JSON: ok %s, worked %s", ok, worked)
	}

	spans[0].Name = "mutated"
	if again := r.Spans(); again[0].Name != "clusters" {
		t.Error("Spans returned the recorder's own slice, not a snapshot")
	}
}

// TestRecorderConcurrent: shard fan-outs record from many goroutines;
// run under -race.
func TestRecorderConcurrent(t *testing.T) {
	_, r := WithRecorder(context.Background())
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record("hop", time.Now(), nil)
				r.Spans()
			}
		}()
	}
	wg.Wait()
	if got := len(r.Spans()); got != workers*each {
		t.Errorf("recorded %d spans, want %d", got, workers*each)
	}
}
