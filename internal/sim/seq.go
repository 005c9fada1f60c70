package sim

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// RunSequential executes the full simulation on one thread. It is the
// reference implementation: RunParallel must reproduce its trajectory
// exactly for any rank count.
func RunSequential(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
	n := newNature(&cfg)
	n.res.Ranks = 1
	kern := newPayoffKernel(&cfg)
	s := cfg.NumSSets
	payoffs := make([]float64, s*(s-1)) // the whole flat pair list

	for gen := cfg.StartGeneration; gen < n.end; gen++ {
		// Control poll: a non-nil return stops the run at this generation
		// boundary (pause/cancel for a hosting service). The partial Result
		// rides along with ErrStopped so the caller keeps the series sampled
		// before the cut; a resumed segment's series appended to it is
		// bit-identical to an uninterrupted run's.
		if cause := n.control(gen); cause != nil {
			return n.res, n.stop(gen, cause)
		}
		// Game dynamics: bring every SSet's payoff row up to date.
		tg := n.pt.begin()
		played, err := refreshPairs(&cfg, n.pop, n.master, kern, gen, cfg.FullRecompute, 0, payoffs)
		n.res.Counters.GamesPlayed += played
		if err != nil {
			return nil, err
		}
		n.pt.end(PhaseGamePlay, tg)
		n.pop.clearDirty()

		// Population dynamics: the Nature Agent's step.
		tn := n.pt.begin()
		d := natureDecision(&cfg, n.master, gen)
		var piT, piL float64
		if d.pc {
			piT = rowFitness(payoffRow(payoffs, s, d.teacher))
			piL = rowFitness(payoffRow(payoffs, s, d.learner))
		}
		ev := n.step(gen, d, piT, piL)
		n.pt.end(PhaseNatureStep, tn)

		mean := 0.0
		if n.sampled(gen) {
			for i := 0; i < s; i++ {
				mean += rowFitness(payoffRow(payoffs, s, i))
			}
			mean /= float64(s)
		}
		if err := n.finishGeneration(gen, ev, mean); err != nil {
			return nil, err
		}
	}

	res := n.res
	res.Final = n.pop.Snapshot()
	res.FinalFitness = fitnesses(payoffs, s)
	res.Elapsed = time.Since(start) //egdlint:allow determinism elapsed-time metadata, not part of the trajectory
	if cfg.Metrics {
		snap := n.pt.snapshot(0)
		snap.Cache = kern.cacheStats()
		res.Metrics = &RunMetrics{Phases: []RankPhaseSnapshot{snap}}
		n.log(trace.Event{Kind: trace.EventMetrics, Generation: n.end, Rank: 0,
			Detail: fmt.Sprintf("games=%d", res.Counters.GamesPlayed)})
	}
	return res, nil
}
