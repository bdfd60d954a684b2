// Package diskstore is the leaf the storage layers share: the I/O
// counters they report (IOStats), the failure sentinels ErrTransient
// and ErrCorrupt, and the RetryPolicy for transient reads (errors.go).
// It imports nothing from this module.
package diskstore

// IOStats counts storage operations. Random operations are keyed
// lookups; sequential operations are scans.
//
// The JSON field names are part of the EngineStats wire format served
// by /debug/stats (pinned by TestEngineStatsJSON in the root package).
type IOStats struct {
	RandomReads     int64 `json:"random_reads"`
	SequentialReads int64 `json:"sequential_reads"`
	Writes          int64 `json:"writes"`
	BytesRead       int64 `json:"bytes_read"`
	BytesWritten    int64 `json:"bytes_written"`
	// RetriedReads counts read attempts reissued after a transient
	// fault (see RetryPolicy) — a nonzero value under healthy hardware
	// means the fault-injection layer is active, a climbing value in
	// production means the device is sick.
	RetriedReads int64 `json:"retried_reads"`
	// CorruptReads counts reads rejected by validation (ErrCorrupt):
	// checksum mismatches, bad framing, skip-entry contradictions.
	CorruptReads int64 `json:"corrupt_reads"`
}

// Add accumulates other into s.
func (s *IOStats) Add(other IOStats) {
	s.RandomReads += other.RandomReads
	s.SequentialReads += other.SequentialReads
	s.Writes += other.Writes
	s.BytesRead += other.BytesRead
	s.BytesWritten += other.BytesWritten
	s.RetriedReads += other.RetriedReads
	s.CorruptReads += other.CorruptReads
}
