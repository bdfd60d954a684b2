package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	blogclusters "repro"
)

// pushDoc is one ingested post: the document's interval is implied by
// the enclosing request, so clients cannot ingest a doc into the wrong
// bucket.
type pushDoc struct {
	ID       int64    `json:"id"`
	Keywords []string `json:"keywords"`
}

// pushRequest is the POST /v1/push body: exactly one interval, which
// must be the next one in the session's sequence.
type pushRequest struct {
	// Interval is the 0-based index of the pushed interval; it must
	// equal the session's current interval count (409 otherwise).
	Interval int `json:"interval"`
	// Label is the human-readable tag ("Jan 8 2007").
	Label string `json:"label"`
	// Docs are the interval's posts with pre-analyzed keywords.
	Docs []pushDoc `json:"docs"`
}

// pushResponse acknowledges a push with the session's new generation.
type pushResponse struct {
	Generation int64  `json:"generation"`
	Interval   int    `json:"interval"`
	Label      string `json:"label"`
	Docs       int    `json:"docs"`
}

// maxPushBody caps a push body: one interval of pre-analyzed posts. It
// is also the cap Client applies to replies, so anything a coordinator
// can relay a shard server accepts.
const maxPushBody = 64 << 20

// handlePush ingests one interval via Engine.Push. Unlike the /v1
// queries it mutates the session, so it sits outside the circuit
// breaker and the admission semaphore (only the request deadline
// applies): a query surface shedding load must not also block ingest,
// and one push per interval is too rare to need admission control.
//
// Status mapping: 413 for a body over maxPushBody, 422 for bodies that
// do not decode or fail interval validation (ErrMalformedInterval), 409 when the interval is not the
// next one (ErrOutOfOrderInterval) — the client should refetch
// /debug/stats and resequence. Success returns the new generation, the
// same value subsequent query envelopes carry.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	sess := s.Session()
	if sess == nil {
		w.Header().Set("Retry-After", s.retryHint)
		writeError(w, http.StatusServiceUnavailable, "corpus is still loading; retry shortly")
		return
	}
	var req pushRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPushBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("push body exceeds the %d MiB limit", maxPushBody>>20))
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "malformed push body: "+err.Error())
		return
	}
	iv := blogclusters.Interval{Index: req.Interval, Label: req.Label}
	iv.Docs = make([]blogclusters.Document, len(req.Docs))
	for i, d := range req.Docs {
		iv.Docs[i] = blogclusters.Document{ID: d.ID, Interval: req.Interval, Keywords: d.Keywords}
	}
	gen, err := sess.Push(r.Context(), iv)
	if err != nil {
		writeError(w, errStatus(err), err.Error())
		return
	}
	s.pushes.Add(1)
	writeJSON(w, http.StatusOK, pushResponse{gen, req.Interval, req.Label, len(req.Docs)})
}
