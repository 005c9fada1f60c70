package sim

import (
	"math"

	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// Population is the global strategy view every rank keeps: the strategy
// assigned to each SSet. Payoffs live with the ranks that play the games
// (see refreshPairs), not here.
type Population struct {
	space      strategy.Space
	strategies []strategy.Strategy
	// dirty marks SSets whose strategy changed since their games were last
	// replayed (incremental mode).
	dirty []bool
}

// NewPopulation initialises a population of cfg.NumSSets strategies: deep
// copies of cfg.InitialStrategies when resuming, otherwise random draws
// from src (the paper's random initial assignment).
func NewPopulation(cfg Config, src *rng.Source) *Population {
	sp := strategy.NewSpace(cfg.Memory)
	p := &Population{
		space:      sp,
		strategies: make([]strategy.Strategy, cfg.NumSSets),
		dirty:      make([]bool, cfg.NumSSets),
	}
	for i := range p.strategies {
		if cfg.InitialStrategies != nil {
			p.strategies[i] = cfg.InitialStrategies[i].Clone()
		} else {
			p.strategies[i] = randomStrategy(cfg.Kind, sp, src.Derive(uint64(i), 0xA11)) // per-SSet stream
		}
		p.dirty[i] = true
	}
	return p
}

func randomStrategy(kind StrategyKind, sp strategy.Space, src *rng.Source) strategy.Strategy {
	if kind == MixedStrategies {
		return strategy.RandomMixed(sp, src)
	}
	return strategy.RandomPure(sp, src)
}

// Size returns the number of SSets.
func (p *Population) Size() int { return len(p.strategies) }

// Space returns the strategy space.
func (p *Population) Space() strategy.Space { return p.space }

// Strategy returns SSet i's current strategy. The caller must not mutate it.
func (p *Population) Strategy(i int) strategy.Strategy { return p.strategies[i] }

// SetStrategy assigns a strategy to SSet i and marks its games dirty.
func (p *Population) SetStrategy(i int, s strategy.Strategy) {
	p.strategies[i] = s
	p.dirty[i] = true
}

// Adopt makes learner copy teacher's strategy (the PC learning step).
func (p *Population) Adopt(learner, teacher int) {
	p.strategies[learner] = p.strategies[teacher].Clone()
	p.dirty[learner] = true
}

// Abundance returns the strategy-abundance tally of the current population.
func (p *Population) Abundance() *stats.Abundance {
	a := stats.NewAbundance()
	for _, s := range p.strategies {
		a.Add(s.Fingerprint())
	}
	return a
}

// FractionNear returns the share of SSets whose strategy rounds to the pure
// strategy ref — the clustering view used for mixed-strategy populations,
// where exact equality never occurs.
func (p *Population) FractionNear(ref *strategy.Pure) float64 {
	return fractionNear(p.strategies, ref)
}

// fractionNear returns the share of strategies that equal the pure strategy
// ref or, for mixed ones, round to it (0 for an empty slice).
func fractionNear(strats []strategy.Strategy, ref *strategy.Pure) float64 {
	if len(strats) == 0 {
		return 0
	}
	n := 0
	for _, s := range strats {
		switch v := s.(type) {
		case *strategy.Pure:
			if v.Equal(ref) {
				n++
			}
		case *strategy.Mixed:
			if v.NearestPure().Equal(ref) {
				n++
			}
		}
	}
	return float64(n) / float64(len(strats))
}

// MeanCooperationProb returns the average cooperation probability across
// all SSets and states — a coarse population cooperativeness measure.
func (p *Population) MeanCooperationProb() float64 {
	total := 0.0
	states := p.space.NumStates()
	for _, s := range p.strategies {
		for st := 0; st < states; st++ {
			total += s.CooperateProb(uint32(st))
		}
	}
	return total / float64(p.Size()*states)
}

// Snapshot returns deep copies of all strategies (for observers that retain
// population state beyond the callback).
func (p *Population) Snapshot() []strategy.Strategy {
	out := make([]strategy.Strategy, len(p.strategies))
	for i, s := range p.strategies {
		out[i] = s.Clone()
	}
	return out
}

// Fermi evaluates Equation 1 of the paper: the probability that the learner
// adopts the teacher's strategy given payoffs piT, piL and selection
// intensity beta.
func Fermi(beta, piT, piL float64) float64 {
	return 1.0 / (1.0 + math.Exp(-beta*(piT-piL)))
}

// refreshPairs brings a block of the flat, i-major pair list up to date
// for generation gen: payoffs[k] is the mean per-round payoff pair lo+k's
// row SSet earns against its column SSet (see pairToIJ). With full set
// every pair is replayed (FullRecompute, or the rebuild after an eviction
// re-sharded the block); otherwise only pairs with a dirty participant are.
// (i, j) and (j, i) are separate games, exactly as in the paper where each
// SSet's own agents model all its matches. The sequential engine passes the
// whole list, a worker its own block.
//
// Match evaluation goes through kern (a nil kernel selects the plain
// uncached path). Returns the number of games played — a cache hit still
// counts, since the game was scheduled and its payoff delivered. A
// pairPayoff failure aborts the pass and propagates, so the run fails
// cleanly instead of panicking.
func refreshPairs(cfg *Config, pop *Population, master *rng.Source, kern *payoffKernel, gen int, full bool, lo int, payoffs []float64) (uint64, error) {
	kern.prepare(cfg, pop)
	s := pop.Size()
	games := uint64(0)
	i, j := pairToIJ(s, lo)
	for k := range payoffs {
		if full || pop.dirty[i] || pop.dirty[j] {
			v, err := kern.pairPayoff(cfg, master, gen, i, j, pop.strategies[i], pop.strategies[j])
			if err != nil {
				return games, err
			}
			payoffs[k] = v
			games++
		}
		// Step to the next pair in i-major order, skipping the diagonal.
		if j++; j == i {
			j++
		}
		if j == s {
			i, j = i+1, 0
		}
	}
	return games, nil
}

// scheduledGames counts the games a refresh pass over every pair plays
// under the current dirty marks: all S×(S-1) pairs in full mode, otherwise
// all but the clean×clean ones. The parallel engine's Nature rank plays no
// games; this count keeps its GamesPlayed current without a reduction.
func (p *Population) scheduledGames(full bool) uint64 {
	s := p.Size()
	if full {
		return uint64(s) * uint64(s-1)
	}
	clean := s
	for _, d := range p.dirty {
		if d {
			clean--
		}
	}
	return uint64(s*(s-1) - clean*(clean-1))
}

// rowFitness folds one SSet's row of payoffs against its S-1 opponents, in
// ascending column order, into its relative fitness: the mean per-round
// payoff averaged over all opponents. The payoffs already are per-round
// means (game.Result.Mean0 divides by rounds; exact mode is per-round by
// construction), so the only normalisation applied here is 1/(S-1) —
// together they realise the paper's 1/((S-1)*rounds) scaling of raw match
// totals. The Fermi exponent therefore always works on the per-round payoff
// scale ([S..T], 1 = all-defect to 3 = full cooperation under the standard
// payoff), independent of population size and match length. Every engine
// folds in this one order, which keeps fitness bit-identical across them.
func rowFitness(row []float64) float64 {
	total := 0.0
	for _, v := range row {
		total += v
	}
	return total / float64(len(row))
}

// payoffRow returns SSet i's row of the whole flat pair list: its payoffs
// against every other SSet, in ascending column order.
func payoffRow(payoffs []float64, s, i int) []float64 {
	return payoffs[i*(s-1) : (i+1)*(s-1)]
}

// fitnesses folds every SSet's row of the whole flat pair list into its
// fitness (see rowFitness).
func fitnesses(payoffs []float64, s int) []float64 {
	out := make([]float64, s)
	for i := range out {
		out[i] = rowFitness(payoffRow(payoffs, s, i))
	}
	return out
}

// clearDirty resets the dirty marks after all owners refreshed their rows.
func (p *Population) clearDirty() {
	for i := range p.dirty {
		p.dirty[i] = false
	}
}
