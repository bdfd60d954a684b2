package core

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestNormalizeCanonicalizes(t *testing.T) {
	cases := []struct {
		name string
		in   Request
		want Request
	}{
		{
			name: "defaults",
			in:   Request{K: 5},
			want: Request{Variant: VariantTopK, Algorithm: "bfs", K: 5},
		},
		{
			name: "auto resolves to the default solver",
			in:   Request{Variant: VariantTopK, Algorithm: AlgorithmAuto, K: 5},
			want: Request{Variant: VariantTopK, Algorithm: "bfs", K: 5},
		},
		{
			name: "normalized auto resolves to normalized",
			in:   Request{Variant: VariantNormalized, Algorithm: AlgorithmAuto, K: 5, LMin: 3},
			want: Request{Variant: VariantNormalized, Algorithm: "normalized", K: 5, LMin: 3},
		},
		{
			name: "diverse auto resolves to the default solver",
			in:   Request{Variant: VariantDiverse, Algorithm: AlgorithmAuto, K: 5, L: 2, Mode: "prefix"},
			want: Request{Variant: VariantDiverse, Algorithm: "bfs", K: 5, L: 2, Mode: "prefix"},
		},
		{
			name: "explicit algorithm is kept",
			in:   Request{Algorithm: "dfs", K: 5, L: 2},
			want: Request{Variant: VariantTopK, Algorithm: "dfs", K: 5, L: 2},
		},
		{
			name: "negative lengths collapse to -1",
			in:   Request{Variant: VariantTopK, K: 3, L: -7},
			want: Request{Variant: VariantTopK, Algorithm: "bfs", K: 3, L: -1},
		},
		{
			name: "topk zeroes foreign fields",
			in:   Request{Variant: VariantTopK, K: 3, L: 2, LMin: 4, Mode: "prefix"},
			want: Request{Variant: VariantTopK, Algorithm: "bfs", K: 3, L: 2},
		},
		{
			name: "normalized fills lmin and drops l/mode",
			in:   Request{Variant: VariantNormalized, K: 3, L: 5, Mode: "suffix"},
			want: Request{Variant: VariantNormalized, Algorithm: "normalized", K: 3, LMin: 2},
		},
		{
			name: "diverse long mode spelling collapses",
			in:   Request{Variant: VariantDiverse, K: 3, L: 2, LMin: 9, Mode: "distinct-endpoints"},
			want: Request{Variant: VariantDiverse, Algorithm: "bfs", K: 3, L: 2, Mode: "endpoints"},
		},
		{
			name: "diverse empty mode defaults to endpoints",
			in:   Request{Variant: VariantDiverse, K: 3, L: 2},
			want: Request{Variant: VariantDiverse, Algorithm: "bfs", K: 3, L: 2, Mode: "endpoints"},
		},
		{
			name: "diverse disjoint-nodes collapses",
			in:   Request{Variant: VariantDiverse, K: 1, L: -2, Mode: "disjoint-nodes"},
			want: Request{Variant: VariantDiverse, Algorithm: "bfs", K: 1, L: -1, Mode: "disjoint"},
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

func TestValidate(t *testing.T) {
	valid := []Request{
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
	invalid := []Request{
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
		if !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("Validate(%+v) = %v, does not wrap ErrInvalidRequest", s, err)
		}
	}
	// The ceiling's message names the bound, so a 400 tells the client
	// what would have been accepted.
	if err := (Request{K: MaxK + 1}).Validate(); err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxK)) {
		t.Errorf("Validate(k=%d) = %v, want an error naming %d", MaxK+1, err, MaxK)
	}
}

// TestDecisionTable pins which solver each (variant, algorithm
// spelling) hands to Solve: "auto" and "" normalize to the variant's
// default, a named solver to itself — there is no decision left to make
// after Normalize.
func TestDecisionTable(t *testing.T) {
	cases := []struct {
		variant, algorithm, want string
	}{
		{VariantTopK, "", DefaultAlgorithm},
		{VariantTopK, AlgorithmAuto, DefaultAlgorithm},
		{VariantTopK, "ta", "ta"},
		{VariantDiverse, "", DefaultAlgorithm},
		{VariantDiverse, AlgorithmAuto, DefaultAlgorithm},
		{VariantDiverse, "dfs", "dfs"},
		{VariantNormalized, "", "normalized"},
		{VariantNormalized, AlgorithmAuto, "normalized"},
		{VariantNormalized, "brute-normalized", "brute-normalized"},
	}
	for _, tc := range cases {
		spec := Request{Variant: tc.variant, Algorithm: tc.algorithm, K: 4, L: 2, LMin: 2}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s %q: Validate = %v", tc.variant, tc.algorithm, err)
		}
		if got := spec.Normalize().Algorithm; got != tc.want {
			t.Errorf("%s %q: Normalize().Algorithm = %q, want %q", tc.variant, tc.algorithm, got, tc.want)
		}
	}
}
