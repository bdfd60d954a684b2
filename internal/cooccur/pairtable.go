package cooccur

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// pairKey packs an ordered keyword-id pair (u ≤ v) into one uint64 so
// the counting tables and spill records never materialize strings on
// the hot path. Diagonal keys (u == u) carry the per-keyword document
// counts A(u); off-diagonal keys carry A(u,v).
func pairKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func splitPairKey(key uint64) (u, v int32) {
	return int32(key >> 32), int32(uint32(key))
}

// pairEntry is one (key, count) pair extracted from a table.
type pairEntry struct {
	key   uint64
	count int64
}

// pairEntryBytes is the per-entry footprint used for memory budgeting
// (one uint64 slot + one int64 count).
const pairEntryBytes = 16

const minTableSlots = 1 << 10 // power of two

// pairTable is an open-addressing (linear probing) hash table from
// packed pair key to count. Slots store key+1 so zero marks an empty
// slot; the maximum packed key is below 1<<63, so the increment cannot
// wrap. Capacity is always a power of two and grows at 3/4 load.
type pairTable struct {
	slots  []uint64
	counts []int64
	n      int
}

func newPairTable() *pairTable {
	return &pairTable{
		slots:  make([]uint64, minTableSlots),
		counts: make([]int64, minTableSlots),
	}
}

// mix is the 64-bit finalizer of MurmurHash3: packed keys are highly
// regular (vocab ids in both halves), so they need real mixing before
// masking down to a table index.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// add increments key's count by delta, growing the table as needed.
func (t *pairTable) add(key uint64, delta int64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	k := key + 1
	for i := mix(key) & mask; ; i = (i + 1) & mask {
		switch t.slots[i] {
		case k:
			t.counts[i] += delta
			return
		case 0:
			t.slots[i] = k
			t.counts[i] = delta
			t.n++
			return
		}
	}
}

func (t *pairTable) grow() {
	oldSlots, oldCounts := t.slots, t.counts
	t.slots = make([]uint64, 2*len(oldSlots))
	t.counts = make([]int64, 2*len(oldCounts))
	mask := uint64(len(t.slots) - 1)
	for i, k := range oldSlots {
		if k == 0 {
			continue
		}
		j := mix(k-1) & mask
		for t.slots[j] != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = k
		t.counts[j] = oldCounts[i]
	}
}

// entryBytes is the resident footprint charged against the shard's
// memory budget (occupied entries only — the spill trigger, unlike the
// capacity, must track what a sorted spill would have to write).
func (t *pairTable) entryBytes() int { return t.n * pairEntryBytes }

// appendEntries appends all occupied entries to dst and returns it.
func (t *pairTable) appendEntries(dst []pairEntry) []pairEntry {
	if cap(dst)-len(dst) < t.n {
		grown := make([]pairEntry, len(dst), len(dst)+t.n)
		copy(grown, dst)
		dst = grown
	}
	for i, k := range t.slots {
		if k != 0 {
			dst = append(dst, pairEntry{key: k - 1, count: t.counts[i]})
		}
	}
	return dst
}

// reset empties the table in place. Capacity is kept: it is bounded by
// the budget share whose overrun triggered the spill, and a shard that
// spilled once will fill the table to that size again.
func (t *pairTable) reset() {
	clear(t.slots)
	clear(t.counts)
	t.n = 0
}

// sortEntries orders entries by ascending key, i.e. by (u, v).
func sortEntries(entries []pairEntry) {
	slices.SortFunc(entries, func(a, b pairEntry) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
}

// --- spill record codec ---
//
// Spilled entries travel through internal/extsort as fixed 16-byte
// records: the key then the count, both big-endian. Bytewise record
// order is therefore numeric key order, so identical keys from
// different shards are adjacent in the merged stream and can be
// aggregated in one pass.

const spillRecordLen = 16

func putSpillRecord(b *[spillRecordLen]byte, key uint64, count int64) {
	binary.BigEndian.PutUint64(b[:8], key)
	binary.BigEndian.PutUint64(b[8:], uint64(count))
}

func parseSpillRecord(rec []byte) (key uint64, count int64, err error) {
	if len(rec) != spillRecordLen {
		return 0, 0, fmt.Errorf("cooccur: malformed spill record %q", rec)
	}
	return binary.BigEndian.Uint64(rec[:8]), int64(binary.BigEndian.Uint64(rec[8:])), nil
}
