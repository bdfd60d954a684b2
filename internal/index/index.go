// Package index implements the keyword index underlying BlogScope, the
// host system of the paper (Sections 1 and 3): per-interval inverted
// posting lists over a temporally ordered document stream.
//
// The index answers the primitives the rest of the pipeline and the
// search features need (Reader):
//
//   - posting lists: A(u), how many documents of an interval contain
//     keyword u, is the length of u's list;
//   - boolean keyword search within an interval (A(u,v) is the length
//     of the search for u and v);
//   - per-keyword time series across intervals (the input to burst
//     detection, internal/burst).
//
// One routine (postingGroups, group.go) groups an interval's postings
// by term from its tokens, and each backend consumes its output once:
// the mem backend (MemIndex) keeps the grouped doc ids as they are,
// and the disk backend encodes them into the EMBANKS-style segment
// (disk.go: sorted doc ids in delta-encoded blocks behind a resident
// skip index) that a Store holds per base and per pushed interval, in
// files read through *DiskIndex.
package index

import (
	"context"
	"fmt"

	"repro/internal/corpus"
)

// Backend names for OpenStore.
const (
	BackendMem  = "mem"
	BackendDisk = "disk"
)

// Live is the index a session holds: a Reader that takes pushed
// intervals. OpenStore returns a *MemIndex on the mem backend and a
// *Store on the disk backend.
type Live interface {
	Reader
	// Push appends interval, which must be exactly NumIntervals(),
	// built from its tokens tk; on error the index is unchanged.
	Push(ctx context.Context, interval int, tk *corpus.Tokens) error
}

// New indexes every interval of the collection on the default
// backend, mem. Document keywords are treated as sets (duplicates
// within a document are counted once), matching the binary
// per-document semantics of Section 3.
func New(c *corpus.Collection) (Live, error) {
	return OpenStore(context.Background(), c, BackendMem, "", Config{})
}

// OpenStore tokenizes the collection (a misfiled document fails it)
// and opens the index over its tokens: OpenStoreTokens.
func OpenStore(ctx context.Context, c *corpus.Collection, backend, path string, cfg Config) (Live, error) {
	toks, err := tokenize(ctx, c)
	if err != nil {
		return nil, err
	}
	return OpenStoreTokens(ctx, toks, backend, path, cfg)
}

// OpenStoreTokens indexes one interval's tokens per entry of toks on
// backend, the one place the backend is chosen: mem (the default, also
// chosen by "") keeps the grouped postings in a MemIndex and ignores
// path and cfg; disk builds a base segment at path in a Store (see
// openStore). ctx bounds the build.
func OpenStoreTokens(ctx context.Context, toks []*corpus.Tokens, backend, path string, cfg Config) (Live, error) {
	switch backend {
	case "", BackendMem:
		return newMemIndex(ctx, toks)
	case BackendDisk:
		return openStore(ctx, toks, path, cfg)
	}
	return nil, fmt.Errorf("index: unknown store backend %q (want mem or disk)", backend)
}
