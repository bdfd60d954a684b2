package server

import (
	"errors"
	"fmt"
	"testing"
)

// TestStatusSentinelsRoundTrip holds both directions of the one
// status↔sentinel table: for every sentinel, the client's reading of
// the status errStatus serves for it wraps that same sentinel, so a
// shard's typed error survives the hop to its coordinator.
func TestStatusSentinelsRoundTrip(t *testing.T) {
	for _, row := range statusSentinels {
		wrapped := fmt.Errorf("shard side: %w", row.sentinel)
		status := errStatus(wrapped)
		if status != row.status {
			t.Errorf("errStatus(%v) = %d, table says %d", row.sentinel, status, row.status)
		}
		body := fmt.Sprintf(`{"error":%q}`, wrapped.Error())
		if err := errorFor(status, "/v1/meta", []byte(body)); !errors.Is(err, row.sentinel) {
			t.Errorf("status %d reads back as %v, which does not wrap %v", status, err, row.sentinel)
		}
	}
}
