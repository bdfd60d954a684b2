package cooccur

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// checkSortEntries sorts a copy of in with sortEntries and with the
// comparison sort and fails unless the keys come out in the same order
// and the entries are the same multiset (equal keys may carry their
// counts in any order).
func checkSortEntries(t *testing.T, name string, in []pairEntry) {
	t.Helper()
	got := slices.Clone(in)
	sortEntries(got)
	want := slices.Clone(in)
	byKey := func(a, b pairEntry) int { return cmp.Compare(a.key, b.key) }
	slices.SortFunc(want, byKey)
	for i := range want {
		if got[i].key != want[i].key {
			t.Fatalf("%s (n=%d): key %d is %#x, want %#x", name, len(in), i, got[i].key, want[i].key)
		}
	}
	byKeyCount := func(a, b pairEntry) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.count, b.count))
	}
	slices.SortStableFunc(got, byKeyCount)
	slices.SortStableFunc(want, byKeyCount)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): sortEntries lost or changed an entry", name, len(in))
	}
}

// TestSortEntriesMatchesSort is the radix sort's oracle test: on every
// key shape the build produces — and the degenerate ones — it must
// order keys exactly as the comparison sort does.
func TestSortEntriesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sizes := []int{0, 1, 2, 3, radixCutoff - 1, radixCutoff, radixCutoff + 1, 100, 255, 256, 257, 1000, 5000}
	for range 12 {
		sizes = append(sizes, rng.Intn(5001))
	}
	gen := func(n int, key func(i int) uint64) []pairEntry {
		es := make([]pairEntry, n)
		for i := range es {
			es[i] = pairEntry{key: key(i), count: int64(i)}
		}
		return es
	}
	for _, n := range sizes {
		// Vocabularies of 1 to 70 000 keywords: ids span 1 to 3 bytes.
		for _, vocab := range []int{1, 2, 200, 256, 3000, 65536, 70000} {
			id := func() int32 { return int32(rng.Intn(vocab)) }
			checkSortEntries(t, "vocab", gen(n, func(int) uint64 { return pairKey(id(), id()) }))
		}
		checkSortEntries(t, "all equal", gen(n, func(int) uint64 { return pairKey(7, 4242) }))
		checkSortEntries(t, "duplicates", gen(n, func(int) uint64 { return pairKey(int32(rng.Intn(3)), int32(rng.Intn(3))) }))
		checkSortEntries(t, "low word only", gen(n, func(int) uint64 { return pairKey(5, int32(5+rng.Intn(70000))) }))
		checkSortEntries(t, "high word only", gen(n, func(int) uint64 { return pairKey(int32(rng.Intn(70000)), 70001) }))
		checkSortEntries(t, "descending", gen(n, func(i int) uint64 { return uint64(n - i) }))
		checkSortEntries(t, "full width", gen(n, func(int) uint64 { return rng.Uint64() }))
	}
}

// FuzzSortEntries checks the radix sort against the comparison sort on
// fuzz-chosen keys. Byte 0 picks a mask that narrows the keys to the
// build's shape (two ids per 32-bit half) or to a few bits, so equal
// keys and long runs of one leading byte are common; every following
// 8 bytes are one key.
func FuzzSortEntries(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(append([]byte{3}, make([]byte, 8*radixCutoff)...))
	masks := []uint64{^uint64(0), 0x0000ffff_0000ffff, 0x000000ff_000000ff, 0x00000003_00000007}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mask := masks[int(data[0])%len(masks)]
		var es []pairEntry
		for rest := data[1:]; len(rest) >= 8; rest = rest[8:] {
			es = append(es, pairEntry{key: binary.LittleEndian.Uint64(rest) & mask, count: int64(len(es))})
		}
		checkSortEntries(t, "fuzz", es)
	})
}
