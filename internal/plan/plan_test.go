package plan

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestNormalizeCanonicalizes(t *testing.T) {
	cases := []struct {
		name string
		in   QuerySpec
		want QuerySpec
	}{
		{
			name: "defaults",
			in:   QuerySpec{K: 5},
			want: QuerySpec{Variant: VariantTopK, Algorithm: "bfs", K: 5},
		},
		{
			name: "auto resolves to the default solver",
			in:   QuerySpec{Variant: VariantTopK, Algorithm: AlgorithmAuto, K: 5},
			want: QuerySpec{Variant: VariantTopK, Algorithm: "bfs", K: 5},
		},
		{
			name: "normalized auto resolves to normalized",
			in:   QuerySpec{Variant: VariantNormalized, Algorithm: AlgorithmAuto, K: 5, LMin: 3},
			want: QuerySpec{Variant: VariantNormalized, Algorithm: "normalized", K: 5, LMin: 3},
		},
		{
			name: "diverse auto resolves to the default solver",
			in:   QuerySpec{Variant: VariantDiverse, Algorithm: AlgorithmAuto, K: 5, L: 2, Mode: "prefix"},
			want: QuerySpec{Variant: VariantDiverse, Algorithm: "bfs", K: 5, L: 2, Mode: "prefix"},
		},
		{
			name: "explicit algorithm is kept",
			in:   QuerySpec{Algorithm: "dfs", K: 5, L: 2},
			want: QuerySpec{Variant: VariantTopK, Algorithm: "dfs", K: 5, L: 2},
		},
		{
			name: "negative lengths collapse to -1",
			in:   QuerySpec{Variant: VariantTopK, K: 3, L: -7},
			want: QuerySpec{Variant: VariantTopK, Algorithm: "bfs", K: 3, L: -1},
		},
		{
			name: "topk zeroes foreign fields",
			in:   QuerySpec{Variant: VariantTopK, K: 3, L: 2, LMin: 4, Mode: "prefix"},
			want: QuerySpec{Variant: VariantTopK, Algorithm: "bfs", K: 3, L: 2},
		},
		{
			name: "normalized fills lmin and drops l/mode",
			in:   QuerySpec{Variant: VariantNormalized, K: 3, L: 5, Mode: "suffix"},
			want: QuerySpec{Variant: VariantNormalized, Algorithm: "normalized", K: 3, LMin: 2},
		},
		{
			name: "diverse long mode spelling collapses",
			in:   QuerySpec{Variant: VariantDiverse, K: 3, L: 2, LMin: 9, Mode: "distinct-endpoints"},
			want: QuerySpec{Variant: VariantDiverse, Algorithm: "bfs", K: 3, L: 2, Mode: "endpoints"},
		},
		{
			name: "diverse empty mode defaults to endpoints",
			in:   QuerySpec{Variant: VariantDiverse, K: 3, L: 2},
			want: QuerySpec{Variant: VariantDiverse, Algorithm: "bfs", K: 3, L: 2, Mode: "endpoints"},
		},
		{
			name: "diverse disjoint-nodes collapses",
			in:   QuerySpec{Variant: VariantDiverse, K: 1, L: -2, Mode: "disjoint-nodes"},
			want: QuerySpec{Variant: VariantDiverse, Algorithm: "bfs", K: 1, L: -1, Mode: "disjoint"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Normalize(); got != tc.want {
				t.Errorf("Normalize(%+v) = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

func TestCacheKeyUnifiesSpellings(t *testing.T) {
	// Equivalent spellings of the same query must share one key.
	same := [][2]QuerySpec{
		{
			{K: 5, L: -3},
			{Variant: VariantTopK, Algorithm: AlgorithmAuto, K: 5, L: -1},
		},
		{
			{Variant: VariantDiverse, K: 3, L: 2, Mode: "distinct-prefix"},
			{Variant: VariantDiverse, Algorithm: "auto", K: 3, L: 2, Mode: "prefix"},
		},
		{
			{Variant: VariantNormalized, K: 2},
			{Variant: VariantNormalized, K: 2, LMin: 2, L: 9, Mode: "suffix"},
		},
		// auto, empty and the resolved name are one query.
		{
			{K: 5, L: 3},
			{Algorithm: "bfs", K: 5, L: 3},
		},
		{
			{Variant: VariantNormalized, Algorithm: "auto", K: 2},
			{Variant: VariantNormalized, Algorithm: "normalized", K: 2},
		},
		{
			{Variant: VariantDiverse, K: 3, L: 2},
			{Variant: VariantDiverse, Algorithm: "bfs", K: 3, L: 2},
		},
	}
	for i, pair := range same {
		if a, b := pair[0].CacheKey(), pair[1].CacheKey(); a != b {
			t.Errorf("pair %d: keys differ: %q vs %q", i, a, b)
		}
	}
	// Genuinely different queries must not collide.
	distinct := []QuerySpec{
		{K: 5, L: 3},
		{K: 5, L: -1},
		{Algorithm: "dfs", K: 5, L: 3},
		{K: 6, L: 3},
		{Variant: VariantNormalized, K: 5},
		{Variant: VariantDiverse, K: 5, L: 3},
		{Variant: VariantDiverse, K: 5, L: 3, Mode: "suffix"},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		key := s.CacheKey()
		if j, ok := seen[key]; ok {
			t.Errorf("specs %d and %d collide on key %q", j, i, key)
		}
		seen[key] = i
	}
}

func TestValidate(t *testing.T) {
	valid := []QuerySpec{
		{K: 5},
		{Algorithm: "bfs", K: 5, L: 3},
		{Algorithm: "ta", K: 1, L: -1},
		{Variant: VariantNormalized, K: 2},
		{Variant: VariantNormalized, Algorithm: "normalized", K: 2, LMin: 3},
		{Variant: VariantDiverse, K: 3, L: 2, Mode: "disjoint"},
		{Variant: VariantDiverse, K: 3, L: 2, Mode: "distinct-suffix"},
		{K: MaxK},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	invalid := []QuerySpec{
		{Variant: "quantum", K: 5},
		{K: 0},
		{K: -1},
		{K: MaxK + 1},
		{Algorithm: "astar", K: 5},
		{Algorithm: "normalized", K: 5}, // normalized solver on a topk query
		{Variant: VariantNormalized, Algorithm: "bfs", K: 5}, // topk solver on a normalized query
		{Variant: VariantNormalized, K: 5, LMin: -2},
		{Variant: VariantDiverse, K: 5, Mode: "nope"},
	}
	for _, s := range invalid {
		err := s.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
			continue
		}
		if !errors.Is(err, core.ErrInvalidRequest) {
			t.Errorf("Validate(%+v) = %v, does not wrap ErrInvalidRequest", s, err)
		}
	}
	// The ceiling's message names the bound, so a 400 tells the client
	// what would have been accepted.
	if err := (QuerySpec{K: MaxK + 1}).Validate(); err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxK)) {
		t.Errorf("Validate(k=%d) = %v, want an error naming %d", MaxK+1, err, MaxK)
	}
}

// TestDecisionTable pins which solver each (variant, algorithm
// spelling) hands to core.Solve: "auto" and "" reach the core.Request as
// the variant's default, a named solver as itself — there is no decision
// left to make after Normalize.
func TestDecisionTable(t *testing.T) {
	cases := []struct {
		variant, algorithm, want string
	}{
		{VariantTopK, "", core.DefaultAlgorithm},
		{VariantTopK, AlgorithmAuto, core.DefaultAlgorithm},
		{VariantTopK, "ta", "ta"},
		{VariantDiverse, "", core.DefaultAlgorithm},
		{VariantDiverse, AlgorithmAuto, core.DefaultAlgorithm},
		{VariantDiverse, "dfs", "dfs"},
		{VariantNormalized, "", "normalized"},
		{VariantNormalized, AlgorithmAuto, "normalized"},
		{VariantNormalized, "brute-normalized", "brute-normalized"},
	}
	for _, tc := range cases {
		spec := QuerySpec{Variant: tc.variant, Algorithm: tc.algorithm, K: 4, L: 2, LMin: 2}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s %q: Validate = %v", tc.variant, tc.algorithm, err)
		}
		if got := spec.Request().Algorithm; got != tc.want {
			t.Errorf("%s %q: Request().Algorithm = %q, want %q", tc.variant, tc.algorithm, got, tc.want)
		}
	}
}

// TestStatsRecordAndMerge checks the solve accounting: ByAlgorithm
// tracks the histogram counts, Work sums the counters and keeps the
// largest peak, Merge sums, and merging into a zero Stats copies deeply
// (the Engine snapshots that way).
func TestStatsRecordAndMerge(t *testing.T) {
	var a, b Stats
	a.RecordSolve("bfs", 5e3, core.Stats{NodeReads: 10, EdgeReads: 20, HeapConsiders: 30, PeakStatePaths: 7})
	a.RecordSolve("bfs", 5e6, core.Stats{NodeReads: 1, EdgeReads: 2, HeapConsiders: 3, PeakStatePaths: 9})
	a.RecordSolve("dfs", 2e10, core.Stats{Pruned: 4, Repushes: 5})
	a.RecordSolve("normalized", 5e5, core.Stats{Passes: 2})
	b.RecordSolve("bfs", 5e3, core.Stats{NodeReads: 100, RandomSeeks: 6, PeakStatePaths: 8})
	b.RecordSolve("normalized", 5e5, core.Stats{Passes: 3})

	var sum Stats
	sum.Merge(a)
	sum.Merge(b)
	if want := map[string]int64{"bfs": 3, "dfs": 1, "normalized": 2}; !reflect.DeepEqual(sum.ByAlgorithm, want) {
		t.Errorf("ByAlgorithm = %v, want %v", sum.ByAlgorithm, want)
	}
	bfs := sum.SolveNs["bfs"]
	if bfs.Count != 3 || bfs.SumNs != 5e3+5e6+5e3 || bfs.Counts[0] != 2 || bfs.Counts[3] != 1 {
		t.Errorf("merged bfs histogram = %+v", bfs)
	}
	if over := sum.SolveNs["dfs"].Counts[len(SolveNsBuckets)]; over != 1 {
		t.Errorf("overflow slot = %d, want 1", over)
	}
	if want := map[string]core.Stats{
		"bfs":        {NodeReads: 111, EdgeReads: 22, HeapConsiders: 33, RandomSeeks: 6, PeakStatePaths: 9},
		"dfs":        {Pruned: 4, Repushes: 5},
		"normalized": {Passes: 5},
	}; !reflect.DeepEqual(sum.Work, want) {
		t.Errorf("Work = %+v, want %+v", sum.Work, want)
	}
	a.RecordSolve("bfs", 1, core.Stats{NodeReads: 1})
	if sum.SolveNs["bfs"].Count != 3 || sum.SolveNs["bfs"].Counts[0] != 2 || sum.Work["bfs"].NodeReads != 111 {
		t.Error("Merge aliased its source's counts")
	}
}
