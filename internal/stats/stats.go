// Package stats implements the statistical machinery of Section 3 of
// the paper: the χ² independence test over 2×2 keyword contingency
// tables (Equation 1) and the binary correlation coefficient ρ in its
// single-pass form (Equation 3).
package stats

import "math"

// ChiSquared95 is the critical value of the χ² distribution with one
// degree of freedom at the 95% confidence level. The paper prunes edges
// whose χ² statistic does not exceed it.
const ChiSquared95 = 3.84

// ChiSquared computes the χ² statistic of Equation 1 for a keyword pair:
// au = A(u) documents contain u, av = A(v) contain v, auv = A(u,v)
// contain both, out of n documents total. The four contingency cells
// (uv, ūv, uv̄, ūv̄) are derived from these counts.
//
// Degenerate tables — a keyword appearing in no document or in every
// document — have an expected count of zero in some cell; independence is
// untestable there and the statistic is defined as 0 (the edge fails the
// test), matching the filter semantics of the pipeline.
func ChiSquared(n, au, av, auv int64) float64 {
	chi2, _ := PairStats(n, au, av, auv)
	return chi2
}

// Correlation computes ρ(u,v) using the paper's single-pass rewrite
// (Equation 3):
//
//	ρ(u,v) = (n·A(u,v) − A(u)·A(v)) / (sqrt((n−A(u))·A(u)) · sqrt((n−A(v))·A(v)))
//
// valid because the per-document indicators are 0/1 (ΣA_i² = ΣA_i). The
// result is in [−1, 1]; pairs involving a keyword that appears in no or
// every document have undefined correlation and return 0.
func Correlation(n, au, av, auv int64) float64 {
	_, rho := PairStats(n, au, av, auv)
	return rho
}

// PairStats returns ChiSquared and Correlation of one keyword pair
// from one guard and one set of conversions. Each value is computed
// by its own formula, so both are bit-identical to the separate
// statistics (χ² is not derived as n·ρ², which moves the last bits).
func PairStats(n, au, av, auv int64) (chi2, rho float64) {
	if n <= 0 || au <= 0 || av <= 0 || au >= n || av >= n {
		return 0, 0
	}
	fn := float64(n)
	fau := float64(au)
	fav := float64(av)
	oUV := float64(auv)

	num := fn*oUV - fau*fav
	den := math.Sqrt(float64(n-au)*fau) * math.Sqrt(float64(n-av)*fav)
	if den != 0 {
		// Clamp tiny floating-point excursions outside [-1, 1].
		rho = max(-1, min(1, num/den))
	}

	if auv > au || auv > av || auv < 0 {
		// Inconsistent counts fail the χ² test rather than panicking;
		// upstream validation reports these separately.
		return 0, rho
	}
	// Observed cells.
	oUnV := fav - oUV        // ū v: v without u
	oUVn := fau - oUV        // u v̄: u without v
	oUnVn := fn - fau - oUnV // ū v̄

	// Expected cells under independence.
	eUV := fau * fav / fn
	eUnV := (fn - fau) * fav / fn
	eUVn := fau * (fn - fav) / fn
	eUnVn := (fn - fau) * (fn - fav) / fn

	cell := func(o, e float64) float64 {
		d := o - e
		return d * d / e
	}
	return cell(oUV, eUV) + cell(oUnV, eUnV) + cell(oUVn, eUVn) + cell(oUnVn, eUnVn), rho
}

// DefaultRhoThreshold is the correlation-coefficient pruning threshold
// the paper uses (ρ > 0.2) to keep only strongly correlated pairs.
const DefaultRhoThreshold = 0.2
