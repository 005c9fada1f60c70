package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if w.Mean() != 5 {
		t.Fatalf("mean = %v", w.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v", w.Variance())
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Variance() != 0 {
		t.Fatal("single sample stats wrong")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(seed uint64, split uint8) bool {
		src := rng.New(seed)
		n := 50 + int(split%50)
		k := int(split) % n
		var all, a, b Welford
		for i := 0; i < n; i++ {
			x := src.Normal()*3 + 1
			all.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-9 &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmptyCases(t *testing.T) {
	var a, b Welford
	a.Merge(b)
	if a.N() != 0 {
		t.Fatal("merging empties changed N")
	}
	b.Add(5)
	a.Merge(b)
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge into empty failed")
	}
	var c Welford
	a.Merge(c)
	if a.N() != 1 {
		t.Fatal("merge of empty changed N")
	}
}

func TestSeriesStride(t *testing.T) {
	s, err := NewSeries(10)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 100; g++ {
		s.Observe(g, float64(g))
	}
	if s.Len() != 10 {
		t.Fatalf("kept %d samples", s.Len())
	}
	g, v := s.At(3)
	if g != 30 || v != 30 {
		t.Fatalf("At(3) = %d,%v", g, v)
	}
	lg, lv, ok := s.Last()
	if !ok || lg != 90 || lv != 90 {
		t.Fatalf("Last = %d,%v,%v", lg, lv, ok)
	}
	if len(s.Values()) != 10 {
		t.Fatal("Values length mismatch")
	}
}

// Truncate rolls the series back to an earlier observation point, and
// re-observing from there reproduces the uninterrupted series — the
// roll-back a live-evicted run performs before replaying a generation.
func TestSeriesTruncate(t *testing.T) {
	s, err := NewSeries(5)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 40; g++ {
		s.Observe(g, float64(g))
	}
	if s.Len() != 8 {
		t.Fatalf("kept %d samples, want 8", s.Len())
	}
	s.Truncate(4) // roll back to before generation 20
	if s.Len() != 4 {
		t.Fatalf("after truncate kept %d, want 4", s.Len())
	}
	for g := 20; g < 40; g++ {
		s.Observe(g, float64(g))
	}
	if s.Len() != 8 {
		t.Fatalf("after replay kept %d, want 8", s.Len())
	}
	for i := 0; i < 8; i++ {
		if g, v := s.At(i); g != i*5 || v != float64(i*5) {
			t.Fatalf("At(%d) = %d,%v after truncate+replay", i, g, v)
		}
	}
	// Out-of-range truncations are no-ops.
	s.Truncate(-1)
	s.Truncate(8)
	s.Truncate(100)
	if s.Len() != 8 {
		t.Fatalf("no-op truncate changed length to %d", s.Len())
	}
	s.Truncate(0)
	if s.Len() != 0 {
		t.Fatalf("Truncate(0) kept %d samples", s.Len())
	}
}

func TestSeriesValidationAndEmpty(t *testing.T) {
	if _, err := NewSeries(0); err == nil {
		t.Fatal("stride 0 accepted")
	}
	s, _ := NewSeries(1)
	if _, _, ok := s.Last(); ok {
		t.Fatal("empty Last ok")
	}
}

func TestAbundance(t *testing.T) {
	a := NewAbundance()
	for i := 0; i < 85; i++ {
		a.Add(111)
	}
	for i := 0; i < 10; i++ {
		a.Add(222)
	}
	for i := 0; i < 5; i++ {
		a.Add(333)
	}
	if a.Total() != 100 || a.Distinct() != 3 {
		t.Fatalf("total %d distinct %d", a.Total(), a.Distinct())
	}
	if a.Fraction(111) != 0.85 {
		t.Fatalf("fraction = %v", a.Fraction(111))
	}
	if a.Fraction(999) != 0 {
		t.Fatal("absent fingerprint nonzero")
	}
	top := a.Top(2)
	if len(top) != 2 || top[0].Fingerprint != 111 || top[1].Fingerprint != 222 {
		t.Fatalf("Top = %+v", top)
	}
	if top[0].Fraction != 0.85 {
		t.Fatalf("top fraction = %v", top[0].Fraction)
	}
}

func TestAbundanceTopDeterministicTies(t *testing.T) {
	a := NewAbundance()
	a.Add(5)
	a.Add(3)
	a.Add(9)
	top := a.Top(3)
	if top[0].Fingerprint != 3 || top[1].Fingerprint != 5 || top[2].Fingerprint != 9 {
		t.Fatalf("tie order not by fingerprint: %+v", top)
	}
}

func TestAbundanceEntropy(t *testing.T) {
	a := NewAbundance()
	if a.Entropy() != 0 {
		t.Fatal("empty entropy nonzero")
	}
	a.Add(1)
	a.Add(2)
	if math.Abs(a.Entropy()-1) > 1e-12 {
		t.Fatalf("two-way entropy = %v, want 1 bit", a.Entropy())
	}
	b := NewAbundance()
	for i := 0; i < 50; i++ {
		b.Add(7)
	}
	if b.Entropy() != 0 {
		t.Fatalf("fixated entropy = %v", b.Entropy())
	}
}

func TestAbundanceFractionEmpty(t *testing.T) {
	if NewAbundance().Fraction(1) != 0 {
		t.Fatal("empty fraction nonzero")
	}
}
