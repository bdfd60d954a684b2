package cooccur

import "math/bits"

// pairKey packs a keyword-id pair into one uint64, smaller id first,
// so the counting tables and spill records never materialize strings
// on the hot path. A key's count is A(u,v); A(u) is counted from the
// tokens and has no key.
func pairKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func splitPairKey(key uint64) (u, v int32) {
	return int32(key >> 32), int32(uint32(key))
}

// pairEntry is one (key, count) pair: a table slot, holding key+1, or
// an entry drained from the table.
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
// wrap. Capacity is always a power of two and grows at 3/4 load. A slot
// is a pairEntry, so drain can gather the entries in place.
type pairTable struct {
	slots []pairEntry
	n     int
}

// prepare empties t for a build that may reach entries keys. A table
// already large enough to hold them without growing keeps its array;
// otherwise it gets a new one that does, of at least minTableSlots
// slots. Either way the spill trigger reads the entries, not the
// slots, so a larger reused table changes nothing but where its keys
// sit.
func (t *pairTable) prepare(entries int) {
	slots := minTableSlots
	for 4*entries > 3*slots {
		slots *= 2
	}
	if slots > len(t.slots) {
		*t = pairTable{slots: make([]pairEntry, slots)}
		return
	}
	t.reset()
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
		s := &t.slots[i]
		switch s.key {
		case k:
			s.count += delta
			return
		case 0:
			s.key, s.count = k, delta
			t.n++
			return
		}
	}
}

func (t *pairTable) grow() {
	old := t.slots
	t.slots = make([]pairEntry, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		j := mix(s.key-1) & mask
		for t.slots[j].key != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = s
	}
}

// entryBytes is the resident footprint charged against the build's
// memory budget (occupied entries only — the spill trigger, unlike the
// capacity, must track what a sorted spill would have to write).
func (t *pairTable) entryBytes() int { return t.n * pairEntryBytes }

// drain gathers the table's entries, keys restored, at the front of
// its own array and returns them there, in no particular order: no
// second array is needed to sort and fold them. The table must be
// reset before its next add.
func (t *pairTable) drain() []pairEntry {
	out := t.slots[:0]
	for _, s := range t.slots {
		if s.key != 0 {
			// The write lands at or before the slot being read.
			out = append(out, pairEntry{key: s.key - 1, count: s.count})
		}
	}
	return out
}

// reset empties the table in place. Capacity is kept: it is bounded by
// the budget whose overrun triggered the spill, and a table that
// spilled once will fill to that size again.
func (t *pairTable) reset() {
	clear(t.slots)
	t.n = 0
}

// radixCutoff is the slice length below which sortEntries hands a
// bucket to insertion sort instead of another radix pass.
const radixCutoff = 48

// sortEntries orders entries by ascending key, i.e. by (u, v), with an
// in-place MSD radix sort (American flag sort) and no second buffer.
// It visits only the key bytes that vary across entries — found from
// the OR and AND of all keys — so with vocabulary ids of about two
// bytes per 32-bit half it makes at most four passes, and most buckets
// are below radixCutoff after the first two. Entries with equal keys
// may come out in any order; every caller sums their counts.
func sortEntries(entries []pairEntry) {
	if len(entries) < radixCutoff {
		insertionSortEntries(entries)
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, e := range entries {
		or |= e.key
		and &= e.key
	}
	if varying := or ^ and; varying != 0 {
		radixSortEntries(entries, varying, topByteShift(varying))
	}
}

// topByteShift returns the shift of the highest nonzero byte of x,
// which must be nonzero.
func topByteShift(x uint64) uint {
	return uint(63-bits.LeadingZeros64(x)) &^ 7
}

// radixSortEntries sorts a, whose keys agree on every byte above shift,
// by the byte at shift and then recursively by the lower bytes that
// vary.
func radixSortEntries(a []pairEntry, varying uint64, shift uint) {
	var count [256]int
	for _, e := range a {
		count[byte(e.key>>shift)]++
	}
	if count[byte(a[0].key>>shift)] < len(a) {
		// Permute in place: next[b] is the first slot of bucket b not
		// yet holding one of its own entries. Each displaced entry is
		// carried to its bucket, picking up that slot's occupant.
		var next, end [256]int
		off := 0
		for b, c := range count {
			next[b] = off
			off += c
			end[b] = off
		}
		for b := range count {
			for next[b] < end[b] {
				e := a[next[b]]
				for d := byte(e.key >> shift); d != byte(b); d = byte(e.key >> shift) {
					e, a[next[d]] = a[next[d]], e
					next[d]++
				}
				a[next[b]] = e
				next[b]++
			}
		}
	}
	lower := varying & (1<<shift - 1)
	if lower == 0 {
		return
	}
	shift = topByteShift(lower)
	lo := 0
	for _, c := range count {
		switch {
		case c >= radixCutoff:
			radixSortEntries(a[lo:lo+c], varying, shift)
		case c > 1:
			insertionSortEntries(a[lo : lo+c])
		}
		lo += c
	}
}

func insertionSortEntries(a []pairEntry) {
	for i := 1; i < len(a); i++ {
		e := a[i]
		j := i
		for ; j > 0 && a[j-1].key > e.key; j-- {
			a[j] = a[j-1]
		}
		a[j] = e
	}
}
