package sim

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/strategy"
)

func testConfig(mem, ssets, gens int) Config {
	cfg := DefaultConfig(mem, ssets)
	cfg.Generations = gens
	cfg.Rules.Rounds = 20 // keep unit tests fast; dynamics unaffected
	return cfg
}

func TestNewPopulationDeterministic(t *testing.T) {
	cfg := testConfig(1, 16, 0)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	a := NewPopulation(cfg, rng.New(7))
	b := NewPopulation(cfg, rng.New(7))
	for i := 0; i < a.Size(); i++ {
		if !a.Strategy(i).Equal(b.Strategy(i)) {
			t.Fatalf("SSet %d differs between identically seeded populations", i)
		}
	}
	c := NewPopulation(cfg, rng.New(8))
	same := 0
	for i := 0; i < a.Size(); i++ {
		if a.Strategy(i).Equal(c.Strategy(i)) {
			same++
		}
	}
	if same == a.Size() {
		t.Fatal("different seeds gave identical population")
	}
}

func TestPopulationKinds(t *testing.T) {
	cfg := testConfig(1, 8, 0)
	cfg.Kind = MixedStrategies
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(1))
	if _, ok := p.Strategy(0).(*strategy.Mixed); !ok {
		t.Fatal("mixed config produced non-mixed strategy")
	}
	cfg.Kind = PureStrategies
	p = NewPopulation(cfg, rng.New(1))
	if _, ok := p.Strategy(0).(*strategy.Pure); !ok {
		t.Fatal("pure config produced non-pure strategy")
	}
}

func TestAdoptClones(t *testing.T) {
	cfg := testConfig(1, 4, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(2))
	p.Adopt(0, 1)
	if !p.Strategy(0).Equal(p.Strategy(1)) {
		t.Fatal("adopt did not copy strategy")
	}
	// Mutating the teacher must not change the learner: they are clones.
	p.SetStrategy(1, strategy.AllD(p.Space()))
	if p.Strategy(0).Equal(p.Strategy(1)) {
		t.Fatal("learner aliases teacher after SetStrategy")
	}
}

func TestFitnessFromPayoffs(t *testing.T) {
	// S = 3: each row holds an SSet's payoffs against its two opponents.
	payoffs := []float64{2.0, 4.0, 1.0, 1.0, 3.0, 3.0}
	if got := rowFitness(payoffs[0:2]); got != 3.0 {
		t.Fatalf("fitness = %v, want 3", got)
	}
	for i, want := range []float64{3, 1, 3} {
		if got := rowFitness(payoffs[2*i : 2*i+2]); got != want {
			t.Fatalf("row %d fitness = %v, want %v", i, got, want)
		}
	}
}

func TestFitnessScaleIsPerRound(t *testing.T) {
	// The Fermi-exponent contract: fitness is a mean PER-ROUND payoff
	// averaged over S-1 opponents — the pair payoffs already divide by the
	// match length, so fitness must not change with Rules.Rounds. AllD in a
	// field of AllC earns exactly the temptation payoff every round.
	for _, rounds := range []int{10, 200} {
		cfg := testConfig(1, 4, 0)
		cfg.Rules.Rounds = rounds
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		master := rng.New(13)
		pop := NewPopulation(cfg, master)
		pop.SetStrategy(0, strategy.AllD(pop.Space()))
		for i := 1; i < pop.Size(); i++ {
			pop.SetStrategy(i, strategy.AllC(pop.Space()))
		}
		s := pop.Size()
		payoffs := make([]float64, s*(s-1))
		if _, err := refreshPairs(&cfg, pop, master, nil, 0, false, 0, payoffs); err != nil {
			t.Fatal(err)
		}
		if got := rowFitness(payoffs[:s-1]); got != cfg.Rules.Payoff.T {
			t.Fatalf("rounds=%d: AllD fitness = %v, want temptation %v (per-round scale)",
				rounds, got, cfg.Rules.Payoff.T)
		}
	}
}

func TestFractionMatchingAndNear(t *testing.T) {
	cfg := testConfig(1, 4, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(4))
	w := strategy.WSLS(p.Space())
	p.SetStrategy(0, w.Clone())
	p.SetStrategy(1, w.Clone())
	p.SetStrategy(2, strategy.AllD(p.Space()))
	p.SetStrategy(3, strategy.AllC(p.Space()))
	if got := p.FractionNear(w); got != 0.5 {
		t.Fatalf("FractionNear = %v", got)
	}
	// A mixed strategy close to WSLS counts as near it.
	m := strategy.MixedFromProbs(p.Space(), []float64{0.95, 0.1, 0.2, 0.9})
	p.SetStrategy(3, m)
	if got := p.FractionNear(w); got != 0.75 {
		t.Fatalf("FractionNear with mixed = %v, want 0.75", got)
	}
	// The Result view over the final strategies agrees.
	r := &Result{Final: p.Snapshot()}
	if got := r.FractionNear(w); got != 0.75 {
		t.Fatalf("Result.FractionNear = %v, want 0.75", got)
	}
	if got := (&Result{}).FractionNear(w); got != 0 {
		t.Fatalf("empty Result.FractionNear = %v, want 0", got)
	}
}

func TestMeanCooperationProb(t *testing.T) {
	cfg := testConfig(1, 2, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(5))
	p.SetStrategy(0, strategy.AllC(p.Space()))
	p.SetStrategy(1, strategy.AllD(p.Space()))
	if got := p.MeanCooperationProb(); got != 0.5 {
		t.Fatalf("mean coop = %v, want 0.5", got)
	}
}

func TestSnapshotDeep(t *testing.T) {
	cfg := testConfig(1, 2, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(6))
	snap := p.Snapshot()
	p.SetStrategy(0, strategy.AllD(p.Space()))
	if snap[0].Equal(p.Strategy(0)) && snap[0].Equal(strategy.AllD(p.Space())) {
		t.Fatal("snapshot aliases population")
	}
}

func TestAbundanceFromPopulation(t *testing.T) {
	cfg := testConfig(1, 5, 0)
	_ = cfg.Validate()
	p := NewPopulation(cfg, rng.New(7))
	w := strategy.WSLS(p.Space())
	for i := 0; i < 4; i++ {
		p.SetStrategy(i, w.Clone())
	}
	p.SetStrategy(4, strategy.AllD(p.Space()))
	a := p.Abundance()
	if a.Distinct() != 2 || a.Total() != 5 {
		t.Fatalf("distinct %d total %d", a.Distinct(), a.Total())
	}
	if a.Fraction(w.Fingerprint()) != 0.8 {
		t.Fatalf("WSLS fraction = %v", a.Fraction(w.Fingerprint()))
	}
}

func TestFermi(t *testing.T) {
	// Equal payoffs: coin flip.
	if got := Fermi(1, 2, 2); got != 0.5 {
		t.Fatalf("Fermi(equal) = %v", got)
	}
	// Teacher much better, strong selection: ~1.
	if got := Fermi(10, 3, 1); got < 0.999 {
		t.Fatalf("Fermi(strong, better) = %v", got)
	}
	// Teacher much worse, strong selection: ~0.
	if got := Fermi(10, 1, 3); got > 0.001 {
		t.Fatalf("Fermi(strong, worse) = %v", got)
	}
	// Beta 0: random drift, always 1/2.
	if got := Fermi(0, 0, 100); got != 0.5 {
		t.Fatalf("Fermi(beta 0) = %v", got)
	}
	// Monotone in the payoff difference.
	prev := 0.0
	for d := -5.0; d <= 5; d += 0.5 {
		p := Fermi(1, d, 0)
		if p <= prev && d > -5 {
			t.Fatalf("Fermi not increasing at d=%v", d)
		}
		prev = p
	}
	// Symmetry: p(d) + p(-d) = 1.
	for _, d := range []float64{0.1, 1, 3} {
		if math.Abs(Fermi(1, d, 0)+Fermi(1, -d, 0)-1) > 1e-12 {
			t.Fatalf("Fermi asymmetric at d=%v", d)
		}
	}
}

func TestBlockRangePartition(t *testing.T) {
	for _, tc := range []struct{ n, w int }{{10, 3}, {16, 4}, {7, 7}, {5, 2}, {1024, 63}, {90, 17}} {
		covered := 0
		prevHi := 0
		for w := 0; w < tc.w; w++ {
			lo, hi := blockRange(tc.n, tc.w, w)
			if lo != prevHi {
				t.Fatalf("n=%d w=%d: gap at worker %d (lo %d, prev hi %d)", tc.n, tc.w, w, lo, prevHi)
			}
			if hi < lo {
				t.Fatalf("negative range")
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.n || prevHi != tc.n {
			t.Fatalf("n=%d w=%d: covered %d", tc.n, tc.w, covered)
		}
	}
}

func TestPairToIJ(t *testing.T) {
	// Every pair index maps to a valid (i, j != i) and the mapping is a
	// bijection over the flat game list.
	for _, s := range []int{2, 3, 5, 10} {
		seen := map[[2]int]bool{}
		for k := 0; k < s*(s-1); k++ {
			i, j := pairToIJ(s, k)
			if i < 0 || i >= s || j < 0 || j >= s || i == j {
				t.Fatalf("s=%d pair %d -> invalid (%d,%d)", s, k, i, j)
			}
			key := [2]int{i, j}
			if seen[key] {
				t.Fatalf("s=%d pair (%d,%d) produced twice", s, i, j)
			}
			seen[key] = true
		}
		if len(seen) != s*(s-1) {
			t.Fatalf("s=%d covered %d ordered pairs", s, len(seen))
		}
	}
	// Explicit spot checks: row-major, diagonal skipped.
	if i, j := pairToIJ(4, 0); i != 0 || j != 1 {
		t.Fatalf("pair 0 = (%d,%d)", i, j)
	}
	if i, j := pairToIJ(4, 3); i != 1 || j != 0 {
		t.Fatalf("pair 3 = (%d,%d)", i, j)
	}
	if i, j := pairToIJ(4, 11); i != 3 || j != 2 {
		t.Fatalf("pair 11 = (%d,%d)", i, j)
	}
}

func TestRowSegmentsCoverEachRow(t *testing.T) {
	for _, tc := range []struct{ s, w int }{{4, 2}, {6, 5}, {4, 10}, {3, 6}, {8, 3}} {
		for i := 0; i < tc.s; i++ {
			segs := rowSegments(tc.s, tc.w, i)
			if len(segs) == 0 {
				t.Fatalf("s=%d w=%d: row %d has no owners", tc.s, tc.w, i)
			}
			expect := i * (tc.s - 1)
			for _, seg := range segs {
				if seg.lo != expect {
					t.Fatalf("s=%d w=%d row %d: segment gap at %d (lo %d)", tc.s, tc.w, i, expect, seg.lo)
				}
				wlo, whi := blockRange(tc.s*(tc.s-1), tc.w, seg.worker)
				if seg.lo < wlo || seg.hi > whi {
					t.Fatalf("segment outside its worker's block")
				}
				expect = seg.hi
			}
			if expect != (i+1)*(tc.s-1) {
				t.Fatalf("s=%d w=%d row %d: segments end at %d", tc.s, tc.w, i, expect)
			}
		}
	}
}

func TestRefreshPayoffsIncremental(t *testing.T) {
	cfg := testConfig(1, 6, 0)
	_ = cfg.Validate()
	master := rng.New(9)
	pop := NewPopulation(cfg, master)
	payoffs := make([]float64, 30)
	refresh := func(gen int) (uint64, error) {
		return refreshPairs(&cfg, pop, master, nil, gen, cfg.FullRecompute, 0, payoffs)
	}
	// First refresh: everything dirty -> S*(S-1) games.
	games, err := refresh(0)
	if err != nil {
		t.Fatal(err)
	}
	if games != 30 {
		t.Fatalf("initial refresh played %d games, want 30", games)
	}
	pop.clearDirty()
	// Nothing changed: zero games.
	if g, err := refresh(1); err != nil || g != 0 {
		t.Fatalf("clean refresh played %d games (err %v)", g, err)
	}
	// One SSet changes: its row (5 games) plus its column (5 games).
	pop.SetStrategy(2, strategy.AllD(pop.Space()))
	if g, err := refresh(2); err != nil || g != 10 {
		t.Fatalf("single-change refresh played %d games, want 10 (err %v)", g, err)
	}
	pop.clearDirty()
	// Full recompute mode: always S*(S-1).
	cfg.FullRecompute = true
	if g, err := refresh(3); err != nil || g != 30 {
		t.Fatalf("full recompute played %d games, want 30 (err %v)", g, err)
	}
}

// A worker refreshes only its block of the flat pair list; stepping (i, j)
// through any block must land on the same pairs, and so the same payoffs
// and game counts, as a pass over the whole list — for every block split
// the engine can produce, including blocks that start or end mid-row.
func TestRefreshPairsBlocksMatchWholeList(t *testing.T) {
	cfg := testConfig(1, 5, 0)
	cfg.Kind = MixedStrategies
	_ = cfg.Validate()
	master := rng.New(12)
	pop := NewPopulation(cfg, master)
	n := pop.Size() * (pop.Size() - 1)
	whole := make([]float64, n)
	if _, err := refreshPairs(&cfg, pop, master, nil, 4, true, 0, whole); err != nil {
		t.Fatal(err)
	}
	pop.clearDirty()
	pop.SetStrategy(3, strategy.AllD(pop.Space()))
	wantGames := pop.scheduledGames(false)
	if _, err := refreshPairs(&cfg, pop, master, nil, 5, false, 0, whole); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 7, n} {
		got := make([]float64, n)
		games := uint64(0)
		for w := 0; w < workers; w++ {
			lo, hi := blockRange(n, workers, w)
			g, err := refreshPairs(&cfg, pop, master, nil, 5, false, lo, got[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			games += g
		}
		if games != wantGames {
			t.Fatalf("%d workers played %d games, want %d", workers, games, wantGames)
		}
		for k := range got {
			i, j := pairToIJ(pop.Size(), k)
			if (i == 3 || j == 3) && got[k] != whole[k] {
				t.Fatalf("%d workers: pair %d (%d,%d) = %v, want %v", workers, k, i, j, got[k], whole[k])
			}
		}
	}
}

func TestPayoffValuesMatchDirectPlay(t *testing.T) {
	cfg := testConfig(1, 4, 0)
	_ = cfg.Validate()
	master := rng.New(11)
	pop := NewPopulation(cfg, master)
	pop.SetStrategy(0, strategy.AllC(pop.Space()))
	pop.SetStrategy(1, strategy.AllD(pop.Space()))
	payoffs := make([]float64, 12)
	if _, err := refreshPairs(&cfg, pop, master, nil, 0, false, 0, payoffs); err != nil {
		t.Fatal(err)
	}
	// ALLC vs ALLD: sucker payoff 0 per round; ALLD vs ALLC: temptation 4.
	// Pair (0,1) is the first of row 0, pair (1,0) the first of row 1.
	if got := payoffs[0]; got != 0 {
		t.Fatalf("payoff(ALLC,ALLD) = %v", got)
	}
	if got := payoffs[3]; got != 4 {
		t.Fatalf("payoff(ALLD,ALLC) = %v", got)
	}
}
