package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestChiSquaredIndependentPair(t *testing.T) {
	// u in half the docs, v in half the docs, co-occurring in exactly a
	// quarter: perfectly independent, χ² must be 0.
	if got := ChiSquared(1000, 500, 500, 250); got != 0 {
		t.Errorf("χ² of independent pair = %g, want 0", got)
	}
}

func TestChiSquaredPerfectlyCorrelated(t *testing.T) {
	// u and v always co-occur in 100 of 1000 docs: χ² = n for a perfect
	// association of this shape.
	got := ChiSquared(1000, 100, 100, 100)
	if got < ChiSquared95 {
		t.Errorf("χ² of perfectly correlated pair = %g, want > %g", got, ChiSquared95)
	}
	// Hand-computed: E(uv)=10, cells give χ² = 81*1000/(9*100) ... verify
	// against the closed form n*(ad-bc)²/((a+b)(c+d)(a+c)(b+d)).
	want := closedForm(1000, 100, 100, 100)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("χ² = %g, want %g (closed form)", got, want)
	}
}

// closedForm is the standard 2x2 χ² formula used as an independent oracle:
// χ² = n(O11·O22 − O12·O21)² / (row1·row2·col1·col2).
func closedForm(n, au, av, auv int64) float64 {
	o11 := float64(auv)
	o12 := float64(au - auv)
	o21 := float64(av - auv)
	o22 := float64(n - au - av + auv)
	fn := float64(n)
	num := fn * (o11*o22 - o12*o21) * (o11*o22 - o12*o21)
	den := (o11 + o12) * (o21 + o22) * (o11 + o21) * (o12 + o22)
	if den == 0 {
		return 0
	}
	return num / den
}

// Property: Equation 1 agrees with the closed-form 2×2 χ² everywhere.
func TestChiSquaredMatchesClosedForm(t *testing.T) {
	f := func(nSeed, auSeed, avSeed, auvSeed uint16) bool {
		n := int64(nSeed)%5000 + 10
		au := int64(auSeed)%(n-1) + 1
		av := int64(avSeed)%(n-1) + 1
		maxAuv := au
		if av < maxAuv {
			maxAuv = av
		}
		minAuv := au + av - n
		if minAuv < 0 {
			minAuv = 0
		}
		if maxAuv < minAuv {
			return true
		}
		auv := minAuv + int64(auvSeed)%(maxAuv-minAuv+1)
		got := ChiSquared(n, au, av, auv)
		want := closedForm(n, au, av, auv)
		return math.Abs(got-want) < 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestChiSquaredDegenerateInputs(t *testing.T) {
	cases := []struct{ n, au, av, auv int64 }{
		{0, 0, 0, 0},
		{100, 0, 50, 0},
		{100, 50, 0, 0},
		{100, 100, 50, 50}, // u in every doc
		{100, 50, 100, 50}, // v in every doc
		{100, 50, 50, 60},  // inconsistent: auv > au
		{100, 50, 50, -1},  // inconsistent: negative
	}
	for _, c := range cases {
		if got := ChiSquared(c.n, c.au, c.av, c.auv); got != 0 {
			t.Errorf("ChiSquared(%v) = %g, want 0", c, got)
		}
	}
}

// TestIsCorrelated: the paper's χ² test at 95% confidence
// (χ² > ChiSquared95) flags a perfectly co-occurring pair and passes
// over an independent one.
func TestIsCorrelated(t *testing.T) {
	if ChiSquared(1000, 100, 100, 100) <= ChiSquared95 {
		t.Error("perfectly co-occurring pair not flagged correlated")
	}
	if ChiSquared(1000, 500, 500, 250) > ChiSquared95 {
		t.Error("independent pair flagged correlated")
	}
}

func TestCorrelationBounds(t *testing.T) {
	// Perfect positive correlation: identical indicator vectors.
	if got := Correlation(1000, 100, 100, 100); math.Abs(got-1) > 1e-9 {
		t.Errorf("ρ of identical keywords = %g, want 1", got)
	}
	// Perfect negative correlation: u and v partition the corpus.
	if got := Correlation(100, 50, 50, 0); math.Abs(got+1) > 1e-9 {
		t.Errorf("ρ of complementary keywords = %g, want -1", got)
	}
	// Independence.
	if got := Correlation(1000, 500, 500, 250); got != 0 {
		t.Errorf("ρ of independent pair = %g, want 0", got)
	}
}

// Property: ρ is always in [-1, 1] and symmetric in u and v.
func TestCorrelationProperties(t *testing.T) {
	f := func(nSeed, auSeed, avSeed, auvSeed uint16) bool {
		n := int64(nSeed)%5000 + 10
		au := int64(auSeed)%(n-1) + 1
		av := int64(avSeed)%(n-1) + 1
		maxAuv := au
		if av < maxAuv {
			maxAuv = av
		}
		minAuv := au + av - n
		if minAuv < 0 {
			minAuv = 0
		}
		if maxAuv < minAuv {
			return true
		}
		auv := minAuv + int64(auvSeed)%(maxAuv-minAuv+1)
		rho := Correlation(n, au, av, auv)
		if rho < -1 || rho > 1 {
			return false
		}
		return rho == Correlation(n, av, au, auv)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// The paper's motivation for ρ: with lots of data, χ² flags weak but real
// correlations that ρ correctly reports as weak.
func TestWeakCorrelationScenario(t *testing.T) {
	// Over a day, two terms co-occur slightly more than chance in a big
	// corpus: n=200000, A(u)=2000, A(v)=2000, expected co-occurrence 20,
	// observed 60.
	n, au, av, auv := int64(200000), int64(2000), int64(2000), int64(60)
	if ChiSquared(n, au, av, auv) <= ChiSquared95 {
		t.Error("χ² failed to detect the weak-but-real correlation")
	}
	rho := Correlation(n, au, av, auv)
	if rho <= 0 || rho >= DefaultRhoThreshold {
		t.Errorf("ρ = %g, want weak positive below the %g pruning threshold", rho, DefaultRhoThreshold)
	}
}

// chi2Reference and rhoReference are Equations 1 and 3 as ChiSquared
// and Correlation computed them before PairStats shared their guard
// and conversions; PairStats must match them bit for bit.
func chi2Reference(n, au, av, auv int64) float64 {
	if n <= 0 || au <= 0 || av <= 0 || au >= n || av >= n || auv > au || auv > av || auv < 0 {
		return 0
	}
	fn, fau, fav, oUV := float64(n), float64(au), float64(av), float64(auv)
	oUnV := fav - oUV
	oUVn := fau - oUV
	oUnVn := fn - fau - oUnV
	eUV := fau * fav / fn
	eUnV := (fn - fau) * fav / fn
	eUVn := fau * (fn - fav) / fn
	eUnVn := (fn - fau) * (fn - fav) / fn
	cell := func(o, e float64) float64 {
		d := o - e
		return d * d / e
	}
	return cell(oUV, eUV) + cell(oUnV, eUnV) + cell(oUVn, eUVn) + cell(oUnVn, eUnVn)
}

func rhoReference(n, au, av, auv int64) float64 {
	if n <= 0 || au <= 0 || av <= 0 || au >= n || av >= n {
		return 0
	}
	num := float64(n)*float64(auv) - float64(au)*float64(av)
	den := math.Sqrt(float64(n-au)*float64(au)) * math.Sqrt(float64(n-av)*float64(av))
	if den == 0 {
		return 0
	}
	rho := num / den
	if rho > 1 {
		rho = 1
	} else if rho < -1 {
		rho = -1
	}
	return rho
}

// TestPairStatsBitIdentical holds the fused statistics to the separate
// formulas at the last bit, over consistent tables, inconsistent
// counts (ρ is still defined there, χ² is 0) and degenerate margins.
func TestPairStatsBitIdentical(t *testing.T) {
	check := func(n, au, av, auv int64) bool {
		chi2, rho := PairStats(n, au, av, auv)
		return math.Float64bits(chi2) == math.Float64bits(chi2Reference(n, au, av, auv)) &&
			math.Float64bits(rho) == math.Float64bits(rhoReference(n, au, av, auv))
	}
	f := func(nSeed, auSeed, avSeed, auvSeed uint32) bool {
		n := int64(nSeed%200000) + 1
		au := int64(auSeed) % (n + 1)
		av := int64(avSeed) % (n + 1)
		return check(n, au, av, int64(auvSeed)%(n+2)-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	for _, c := range [][4]int64{{0, 0, 0, 0}, {10, 10, 5, 5}, {10, 3, 4, 5}, {10, 3, 4, -1}, {200000, 2000, 2000, 60}} {
		if !check(c[0], c[1], c[2], c[3]) {
			t.Errorf("PairStats%v differs from the separate statistics", c)
		}
	}
}

func BenchmarkPairStats(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := int64(100000 + i%100)
		PairStats(n, 500, 700, 90)
	}
}
