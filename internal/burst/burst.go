// Package burst detects information bursts in keyword time series —
// the BlogScope feature the paper's introduction describes ("points to
// events of interest via information bursts") and the phenomenon that
// makes keyword clusters appear in the first place: an event drives a
// keyword's document frequency far above its baseline for a few
// intervals.
//
// Two detectors are provided:
//
//   - ZScore: flags intervals where the frequency (as a fraction of
//     the interval's documents, so growing corpora do not fake bursts)
//     exceeds a trimmed baseline — the mean of the lower 75% of rates —
//     by a multiple of that baseline's standard deviation. Cheap,
//     stateless, good for dashboards.
//   - Kleinberg: the classic two-state automaton (J. Kleinberg,
//     "Bursty and Hierarchical Structure in Streams", KDD 2002) solved
//     exactly with Viterbi dynamic programming over a binomial cost
//     model; it produces clean maximal burst intervals and resists
//     single-interval noise.
package burst

import (
	"fmt"
	"math"
	"sort"
)

// Burst is one maximal bursty stretch of intervals, inclusive on both
// ends.
type Burst struct {
	Start int `json:"start"`
	End   int `json:"end"`
	// Score quantifies the burst: peak z-score for ZScore, cost saving
	// over the quiescent state for Kleinberg.
	Score float64 `json:"score"`
}

// Length returns the number of intervals the burst spans.
func (b Burst) Length() int { return b.End - b.Start + 1 }

func (b Burst) String() string {
	return fmt.Sprintf("[%d,%d] score %.2f", b.Start, b.End, b.Score)
}

// ZScoreOptions configures the z-score detector.
type ZScoreOptions struct {
	// Threshold is the minimum z-score to call an interval bursty
	// (default 2.5).
	Threshold float64
	// MinDocs skips intervals with fewer total documents, where rates
	// are noise (default 1).
	MinDocs int64
}

// ZScore detects bursts in counts[i] occurrences out of totals[i]
// documents per interval. Consecutive bursty intervals merge into one
// Burst with the peak z-score.
func ZScore(counts, totals []int64, opts ZScoreOptions) ([]Burst, error) {
	if len(counts) != len(totals) {
		return nil, fmt.Errorf("burst: counts (%d) and totals (%d) differ in length", len(counts), len(totals))
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = 2.5
	}
	minDocs := opts.MinDocs
	if minDocs <= 0 {
		minDocs = 1
	}
	rates := make([]float64, len(counts))
	var usable []float64
	for i := range counts {
		if totals[i] < minDocs {
			rates[i] = math.NaN()
			continue
		}
		if counts[i] < 0 || counts[i] > totals[i] {
			return nil, fmt.Errorf("burst: interval %d: count %d outside [0,%d]", i, counts[i], totals[i])
		}
		rates[i] = float64(counts[i]) / float64(totals[i])
		usable = append(usable, rates[i])
	}
	if len(usable) < 2 {
		return nil, nil // no baseline to deviate from
	}
	// Baseline statistics come from the lower 75% of rates so that the
	// bursts themselves (which can be a sizable fraction of a short
	// series) do not inflate the mean and variance they are judged
	// against.
	sort.Float64s(usable)
	cut := (len(usable)*3 + 3) / 4
	if cut < 2 {
		cut = 2
	}
	base := usable[:cut]
	var mean float64
	for _, r := range base {
		mean += r
	}
	mean /= float64(len(base))
	var variance float64
	for _, r := range base {
		variance += (r - mean) * (r - mean)
	}
	variance /= float64(len(base))
	sd := math.Sqrt(variance)

	var out []Burst
	open := -1
	peak := 0.0
	flush := func(end int) {
		if open >= 0 {
			out = append(out, Burst{Start: open, End: end, Score: peak})
			open = -1
			peak = 0
		}
	}
	for i, r := range rates {
		z := math.NaN()
		switch {
		case math.IsNaN(r):
		case sd > 0:
			z = (r - mean) / sd
		case r > mean:
			// Perfectly flat baseline: any excursion above it is an
			// unambiguous burst.
			z = math.Inf(1)
		}
		if !math.IsNaN(z) && z >= threshold {
			if open < 0 {
				open = i
			}
			if z > peak {
				peak = z
			}
			continue
		}
		flush(i - 1)
	}
	flush(len(rates) - 1)
	return out, nil
}

// KleinbergOptions configures the two-state automaton.
type KleinbergOptions struct {
	// S scales the burst state's rate relative to the baseline
	// (default 2: the bursty state emits at twice the base rate).
	S float64
	// Gamma is the cost of entering the burst state (default 1); higher
	// values demand stronger evidence, suppressing one-off spikes.
	Gamma float64
}

// Kleinberg runs the two-state automaton over counts[i] of totals[i]
// per interval and returns the maximal stretches labeled bursty by the
// minimum-cost state sequence. The Score of each burst is the cost
// saved versus staying quiescent across it.
func Kleinberg(counts, totals []int64, opts KleinbergOptions) ([]Burst, error) {
	if len(counts) != len(totals) {
		return nil, fmt.Errorf("burst: counts (%d) and totals (%d) differ in length", len(counts), len(totals))
	}
	s := opts.S
	if s == 0 {
		s = 2
	}
	if s <= 1 {
		return nil, fmt.Errorf("burst: S must exceed 1, got %g", s)
	}
	gamma := opts.Gamma
	if gamma == 0 {
		gamma = 1
	}
	if gamma < 0 {
		return nil, fmt.Errorf("burst: Gamma must be >= 0, got %g", gamma)
	}
	n := len(counts)
	if n == 0 {
		return nil, nil
	}

	// Baseline rate p0 across the whole series; burst rate p1 = s*p0.
	var totalCount, totalDocs int64
	for i := range counts {
		if counts[i] < 0 || (totals[i] > 0 && counts[i] > totals[i]) {
			return nil, fmt.Errorf("burst: interval %d: count %d outside [0,%d]", i, counts[i], totals[i])
		}
		totalCount += counts[i]
		totalDocs += totals[i]
	}
	if totalDocs == 0 || totalCount == 0 {
		return nil, nil
	}
	p0 := float64(totalCount) / float64(totalDocs)
	p1 := s * p0
	if p1 >= 1 {
		p1 = 1 - 1e-9
	}

	// Per-interval emission cost under each state: negative binomial
	// log-likelihood -[k ln p + (n-k) ln (1-p)].
	cost := func(k, t int64, p float64) float64 {
		if t == 0 {
			return 0
		}
		return -(float64(k)*math.Log(p) + float64(t-k)*math.Log(1-p))
	}

	// Viterbi over states {0: quiescent, 1: bursty}; entering state 1
	// costs gamma, falling back is free (Kleinberg's asymmetry).
	const inf = math.MaxFloat64 / 4
	prev := [2]float64{0, gamma}
	type choice [2]uint8 // back-pointers for this interval
	back := make([]choice, n)
	for i := 0; i < n; i++ {
		c0 := cost(counts[i], totals[i], p0)
		c1 := cost(counts[i], totals[i], p1)
		var cur [2]float64
		// To state 0: from 0 (free) or from 1 (free).
		if prev[0] <= prev[1] {
			cur[0] = prev[0] + c0
			back[i][0] = 0
		} else {
			cur[0] = prev[1] + c0
			back[i][0] = 1
		}
		// To state 1: from 1 (free) or from 0 (pay gamma).
		if prev[1] <= prev[0]+gamma {
			cur[1] = prev[1] + c1
			back[i][1] = 1
		} else {
			cur[1] = prev[0] + gamma + c1
			back[i][1] = 0
		}
		if cur[0] > inf || cur[1] > inf {
			return nil, fmt.Errorf("burst: cost overflow at interval %d", i)
		}
		prev = cur
	}

	// Reconstruct the optimal state sequence.
	states := make([]uint8, n)
	var last uint8
	if prev[1] < prev[0] {
		last = 1
	}
	states[n-1] = last
	for i := n - 1; i > 0; i-- {
		last = back[i][last]
		states[i-1] = last
	}

	// Extract maximal bursty stretches, scoring each by the emission
	// cost saved versus the quiescent state.
	var out []Burst
	open := -1
	saved := 0.0
	flush := func(end int) {
		if open >= 0 {
			out = append(out, Burst{Start: open, End: end, Score: saved})
			open = -1
			saved = 0
		}
	}
	for i := 0; i < n; i++ {
		if states[i] == 1 {
			if open < 0 {
				open = i
			}
			saved += cost(counts[i], totals[i], p0) - cost(counts[i], totals[i], p1)
			continue
		}
		flush(i - 1)
	}
	flush(n - 1)
	return out, nil
}
