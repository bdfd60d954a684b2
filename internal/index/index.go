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
// Postings have one layout, the EMBANKS-style segment (disk.go): sorted
// document ids in delta-encoded blocks behind a resident skip index. A
// Store holds a segment per base and per pushed interval, on one of two
// filesystems: the mem backend keeps the segment bytes in memory
// (faultfs.Mem), the disk backend in a file. Both read through the same
// *DiskIndex.
package index

import (
	"context"

	"repro/internal/corpus"
)

// New indexes every interval of the collection in a Store on the
// default backend, mem: the segment held in memory. Document keywords
// are treated as sets (duplicates within a document are counted once),
// matching the binary per-document semantics of Section 3.
func New(c *corpus.Collection) (*Store, error) {
	return OpenStore(context.Background(), c, "", "", Config{})
}
