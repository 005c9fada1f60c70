package sim

import (
	"time"

	"repro/internal/stats"
	"repro/internal/strategy"
)

// Counters tallies the work a run performed.
type Counters struct {
	GamesPlayed uint64 // two-player IPD matches executed
	PCEvents    uint64 // pairwise-comparison events fired
	Adoptions   uint64 // PC events in which the learner adopted
	Mutations   uint64 // mutation events fired
}

// Result is the outcome of a simulation run.
type Result struct {
	// Final holds deep copies of every SSet's final strategy.
	Final []strategy.Strategy
	// FinalFitness holds every SSet's final relative fitness.
	FinalFitness []float64
	// MeanFitness samples the population mean fitness over generations
	// (per-round payoff scale: 1 = all-defect, 3 = full cooperation).
	MeanFitness *stats.Series
	// Cooperation samples the population mean cooperation probability.
	Cooperation *stats.Series
	// Counters tallies games and evolution events.
	Counters Counters
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Ranks is the number of ranks still in the world when the run finished
	// (1 for sequential; start count minus live evictions for parallel).
	Ranks int
	// Restarts is how many times the recovery supervisor restarted the run
	// (0 for a direct or fault-free run).
	Restarts int
	// Evictions is how many ranks were evicted live — failed and recovered
	// from in flight, without a restart (Config.Evict).
	Evictions int
	// Metrics holds the run's observability aggregate (per-rank phase
	// timings, and comm accounting for the parallel engine); nil unless
	// Config.Metrics was set.
	Metrics *RunMetrics
}

// FinalAbundance tallies the final population's strategy abundance.
func (r *Result) FinalAbundance() *stats.Abundance {
	a := stats.NewAbundance()
	for _, s := range r.Final {
		a.Add(s.Fingerprint())
	}
	return a
}

// FractionNear returns the share of final SSets whose strategy rounds to
// the pure strategy ref (Fig. 2's "85% of all SSets adopted WSLS" measure).
func (r *Result) FractionNear(ref *strategy.Pure) float64 {
	return fractionNear(r.Final, ref)
}
