package strategy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPureDefaultCooperates(t *testing.T) {
	p := NewPure(NewSpace(2))
	for s := uint32(0); s < 16; s++ {
		if p.MoveAt(s) != Cooperate {
			t.Fatalf("state %d: default move not C", s)
		}
		if p.CooperateProb(s) != 1 {
			t.Fatalf("state %d: CooperateProb != 1", s)
		}
	}
}

func TestPureSetMove(t *testing.T) {
	p := NewPure(NewSpace(1))
	p.SetMove(2, Defect)
	if p.MoveAt(2) != Defect || p.CooperateProb(2) != 0 {
		t.Fatal("SetMove(Defect) not reflected")
	}
	p.SetMove(2, Cooperate)
	if p.MoveAt(2) != Cooperate {
		t.Fatal("SetMove(Cooperate) not reflected")
	}
}

func TestPureFromMoves(t *testing.T) {
	sp := NewSpace(1)
	p := PureFromMoves(sp, []Move{Cooperate, Defect, Defect, Cooperate})
	if p.String() != "0110" {
		t.Fatalf("String = %q, want 0110", p.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length moves did not panic")
		}
	}()
	PureFromMoves(sp, []Move{Cooperate})
}

func TestParsePure(t *testing.T) {
	p, err := ParsePure("0110")
	if err != nil {
		t.Fatal(err)
	}
	if p.Space().Memory() != 1 {
		t.Fatalf("memory = %d, want 1", p.Space().Memory())
	}
	if !p.Equal(WSLS(NewSpace(1))) {
		t.Fatal("0110 should be memory-one WSLS")
	}
	if _, err := ParsePure("010"); err == nil {
		t.Fatal("length-3 accepted")
	}
	if _, err := ParsePure("01x0"); err == nil {
		t.Fatal("junk accepted")
	}
	// Memory-2: 16 states.
	p2, err := ParsePure("0110011001100110")
	if err != nil || p2.Space().Memory() != 2 {
		t.Fatalf("memory-2 parse failed: %v", err)
	}
}

func TestPureCloneEqual(t *testing.T) {
	src := rng.New(1)
	p := RandomPure(NewSpace(3), src)
	q := p.Clone().(*Pure)
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q.SetMove(5, Cooperate)
	q.SetMove(5, Defect)
	q.bits.Flip(7)
	if p.Equal(q) {
		t.Fatal("mutated clone still equal")
	}
	if p.Equal(NewMixed(NewSpace(3))) {
		t.Fatal("pure equal to mixed")
	}
}

func TestMixedBasics(t *testing.T) {
	m := NewMixed(NewSpace(1))
	for s := uint32(0); s < 4; s++ {
		if m.CooperateProb(s) != 0.5 {
			t.Fatal("default mixed prob != 0.5")
		}
	}
	m.SetProb(0, 2.0)
	if m.CooperateProb(0) != 1 {
		t.Fatal("SetProb did not clamp high")
	}
	m.SetProb(1, -3)
	if m.CooperateProb(1) != 0 {
		t.Fatal("SetProb did not clamp low")
	}
}

func TestMixedMoveSampling(t *testing.T) {
	m := NewMixed(NewSpace(1))
	m.SetProb(0, 0.25)
	src := rng.New(2)
	const n = 100000
	coop := 0
	for i := 0; i < n; i++ {
		if m.Move(0, src) == Cooperate {
			coop++
		}
	}
	got := float64(coop) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("cooperation rate %v, want ~0.25", got)
	}
}

func TestMixedFromProbsClamps(t *testing.T) {
	m := MixedFromProbs(NewSpace(1), []float64{-1, 0.5, 2, 1})
	want := []float64{0, 0.5, 1, 1}
	for i, w := range want {
		if m.CooperateProb(uint32(i)) != w {
			t.Fatalf("state %d: prob %v, want %v", i, m.CooperateProb(uint32(i)), w)
		}
	}
}

func TestMixedEqualFingerprint(t *testing.T) {
	a := MixedFromProbs(NewSpace(1), []float64{0.1, 0.2, 0.3, 0.4})
	b := a.Clone().(*Mixed)
	if !a.Equal(b) || a.Fingerprint() != b.Fingerprint() {
		t.Fatal("clone mismatch")
	}
	b.SetProb(2, 0.9)
	if a.Equal(b) || a.Fingerprint() == b.Fingerprint() {
		t.Fatal("difference not detected")
	}
}

func TestNearestPure(t *testing.T) {
	m := MixedFromProbs(NewSpace(1), []float64{0.9, 0.1, 0.5, 0.51})
	p := m.NearestPure()
	if got, want := p.String(), "0110"; got != want {
		t.Fatalf("NearestPure = %q, want %q", got, want)
	}
}

func TestRandomPureUniform(t *testing.T) {
	src := rng.New(3)
	sp := NewSpace(4) // 256 states
	const trials = 200
	ones := 0
	for i := 0; i < trials; i++ {
		ones += RandomPure(sp, src).Bits().Count()
	}
	rate := float64(ones) / float64(trials*sp.NumStates())
	if math.Abs(rate-0.5) > 0.02 {
		t.Fatalf("random pure defect rate %v, want ~0.5", rate)
	}
}

func TestRandomPureSmallSpaceTailClear(t *testing.T) {
	src := rng.New(4)
	for i := 0; i < 100; i++ {
		p := RandomPure(NewSpace(1), src)
		if p.Bits().Len() != 4 {
			t.Fatal("wrong length")
		}
		if c := p.Bits().Count(); c > 4 {
			t.Fatalf("count %d > 4: tail bits leaked", c)
		}
	}
}

func TestRandomMixedRange(t *testing.T) {
	src := rng.New(5)
	m := RandomMixed(NewSpace(3), src)
	for s := uint32(0); s < 64; s++ {
		p := m.CooperateProb(s)
		if p < 0 || p >= 1 {
			t.Fatalf("prob out of range: %v", p)
		}
	}
}

func TestPointMutatePure(t *testing.T) {
	src := rng.New(6)
	p := AllC(NewSpace(3))
	for _, k := range []int{0, 1, 5, 64} {
		q := PointMutatePure(p, k, src)
		if got := p.Hamming(q); got != k {
			t.Fatalf("k=%d: hamming = %d", k, got)
		}
		if k > 0 && p.Equal(q) {
			t.Fatal("mutation produced identical strategy")
		}
	}
	if p.Bits().Count() != 0 {
		t.Fatal("PointMutatePure modified its input")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("k > states did not panic")
		}
	}()
	PointMutatePure(p, 65, src)
}

func TestPerturbMixed(t *testing.T) {
	src := rng.New(7)
	m := MixedFromProbs(NewSpace(1), []float64{0, 0.5, 1, 0.5})
	q := PerturbMixed(m, 0.1, src)
	if m.Equal(q) {
		t.Fatal("perturbation changed nothing")
	}
	for s := uint32(0); s < 4; s++ {
		if p := q.CooperateProb(s); p < 0 || p > 1 {
			t.Fatalf("perturbed prob out of range: %v", p)
		}
		if m.CooperateProb(s) != []float64{0, 0.5, 1, 0.5}[s] {
			t.Fatal("PerturbMixed modified its input")
		}
	}
}

func TestEnumeratePureMemoryOne(t *testing.T) {
	// Table III: exactly 16 memory-one pure strategies, all distinct.
	all := EnumeratePure(NewSpace(1))
	if len(all) != 16 {
		t.Fatalf("enumerated %d, want 16", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		seen[p.String()] = true
	}
	if len(seen) != 16 {
		t.Fatalf("only %d distinct strategies", len(seen))
	}
	// Strategy 1 in Table III is all-C; strategy 16 is all-D.
	if !all[0].Equal(AllC(NewSpace(1))) {
		t.Fatal("first enumerated strategy is not ALLC")
	}
	if !all[15].Equal(AllD(NewSpace(1))) {
		t.Fatal("last enumerated strategy is not ALLD")
	}
}

func TestEnumeratePureTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EnumeratePure(memory 3) did not panic")
		}
	}()
	EnumeratePure(NewSpace(3))
}

// Property: fingerprints of random pure strategies rarely collide and equal
// strategies always agree.
func TestFingerprintProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		p := RandomPure(NewSpace(3), src)
		q := p.Clone().(*Pure)
		r := RandomPure(NewSpace(3), src)
		if p.Fingerprint() != q.Fingerprint() {
			return false
		}
		if p.Equal(r) != (p.Fingerprint() == r.Fingerprint() && p.Hamming(r) == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
