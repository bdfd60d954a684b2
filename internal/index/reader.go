package index

// Reader is the view of the keyword index that BlogScope's features
// consume (boolean search, posting lists, per-keyword time series),
// answered by the mem backend's MemIndex, one segment (*DiskIndex) or
// the disk backend's multi-segment Store.
// A(u) is len(Postings(u, i)) and A(u,v) is len(Search([u v], i)).
// Implementations are safe for concurrent readers.
//
// Methods that read posting blocks return errors: a segment file can
// fail a read, and every segment checks its blocks' CRCs. Unknown
// keywords have no postings, Search returns nil for empty keyword lists
// or empty results, and out-of-range intervals behave like empty ones.
type Reader interface {
	// NumIntervals returns the number of indexed intervals.
	NumIntervals() int
	// NumDocs returns the number of documents in interval i.
	NumDocs(i int) int
	// Search returns the sorted ids of interval-i documents containing
	// all keywords.
	Search(keywords []string, i int) ([]int64, error)
	// TimeSeries returns A(w) for every interval.
	TimeSeries(w string) ([]int64, error)
	// Vocabulary returns the sorted distinct keywords of interval i.
	// The slice must not be modified by the caller.
	Vocabulary(i int) ([]string, error)
	// Postings returns the sorted document ids containing keyword w in
	// interval i. The slice must not be modified by the caller.
	Postings(w string, i int) ([]int64, error)
	// Close releases the reader's files.
	Close() error
}
