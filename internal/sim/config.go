// Package sim implements the paper's evolutionary game dynamics: Strategy
// Sets (SSets) of agents playing the Iterated Prisoner's Dilemma against
// every other SSet's strategy (game dynamics, §IV-A), evolved by a Nature
// Agent through Fermi pairwise-comparison learning and random mutation
// (population dynamics, §IV-B).
//
// Two engines produce bit-identical trajectories from the same seed:
//
//   - RunSequential: a single-threaded reference implementation;
//   - RunParallel: the paper's SPMD decomposition over the mpi runtime —
//     rank 0 is the Nature Agent, the remaining ranks own block-distributed
//     SSets, fitness travels point-to-point, selections and strategy
//     updates travel by broadcast. RunWorker hosts one rank of the same
//     world over a networked transport.
//
// Both engines drive one Nature Agent, the nature type in nature.go: the
// per-generation decision, adoption and mutation, the Result and its
// series, the Observer call, the checkpoint cadence and the eviction
// rollback. It has no transport dependency; the engines differ only in
// where the fitness it consumes comes from.
//
// Fitness evaluation supports the paper's every-generation full recompute
// (FullRecompute, used in its timing studies) and an incremental mode that
// exploits the fact that payoffs only change when a strategy changes —
// letting long trajectories such as the Fig. 2 WSLS validation run at
// laptop scale with identical dynamics.
package sim

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// StrategyKind selects the strategy representation evolved by the run.
type StrategyKind int

const (
	// PureStrategies evolves deterministic bit-table strategies (the
	// paper's scaling studies).
	PureStrategies StrategyKind = iota
	// MixedStrategies evolves probabilistic strategies (the paper's Fig. 2
	// WSLS validation, following Nowak & Sigmund).
	MixedStrategies
)

// Config parameterises a simulation run. Zero values are replaced by the
// paper's defaults in Validate where noted.
type Config struct {
	// Memory is the strategy memory depth n in [1,6].
	Memory int
	// NumSSets is the number of Strategy Sets (the population of
	// strategies).
	NumSSets int
	// AgentsPerSSet is the number of agents sharing each SSet's strategy.
	// The paper sets it equal to NumSSets so each agent plays exactly one
	// opponent per generation; 0 selects that default. It determines the
	// work decomposition and the agent population size reported by
	// PopulationSize, not the dynamics.
	AgentsPerSSet int
	// Generations is the number of evolution steps.
	Generations int
	// Rules are the per-match IPD parameters; a zero value selects the
	// paper's defaults (payoff [3,0,4,1], 200 rounds, no errors).
	Rules game.Rules
	// PCRate is the per-generation probability of a pairwise-comparison
	// learning event (paper: 0.10 for production, 0.01 in the Table VI
	// scaling runs). Zero keeps zero; set explicitly.
	PCRate float64
	// Mu is the per-generation probability of a random mutation replacing
	// a random SSet's strategy (paper: 0.05).
	Mu float64
	// Beta is the Fermi selection intensity (Equation 1). The paper does
	// not publish its value; 1.0 gives moderately strong selection on
	// per-round payoff differences.
	Beta float64
	// Kind selects pure or mixed strategies.
	Kind StrategyKind
	// Seed drives every random decision; identical seeds give identical
	// trajectories on both engines at any rank count.
	Seed uint64
	// FullRecompute forces every SSet's fitness to be recomputed every
	// generation, as the paper's timing studies do. When false, fitness is
	// recomputed only when a strategy changes (identical dynamics for
	// deterministic games; for mixed strategies the cached payoff stands in
	// for resampling, trading sampling noise for tractable long runs).
	FullRecompute bool
	// AllowWorseAdoption, when true, uses the unconditional Fermi rule
	// (Traulsen et al.): the learner may adopt a worse-scoring teacher with
	// probability < 1/2. When false (default) the paper's explicit gate
	// applies: adoption only if the teacher's fitness is strictly higher.
	AllowWorseAdoption bool
	// UseSearchEngine selects the paper-faithful linear find_state lookup
	// in the IPD inner loop instead of direct indexing (ablation).
	UseSearchEngine bool
	// ExactPayoffs replaces the finite sampled match (Rules.Rounds rounds)
	// with the exact infinite-game payoff from the Markov stationary
	// analysis — the evaluation the original Nowak-Sigmund study used.
	// Execution errors still apply (folded into the chain); Rules.Rounds is
	// ignored. Mutually exclusive with UseSearchEngine.
	ExactPayoffs bool
	// PayoffCache enables the per-rank strategy-pair payoff memo: matches
	// whose outcome is a pure function of the two behaviour tables and the
	// rules (exact mode, or error-free deterministic strategies) are served
	// from a bounded LRU keyed by canonical fingerprint instead of being
	// replayed. Trajectories are bit-identical with the cache on or off —
	// pairs whose outcome depends on the random stream bypass it — and
	// entries survive mutations, adoptions, and checkpoint resumes because
	// the key is behavioural content, not object identity. Hit/miss/eviction
	// counters surface through Result.Metrics when Metrics is also set. See
	// docs/KERNEL.md.
	PayoffCache bool
	// PayoffCacheSize bounds the cache to this many entries per rank
	// (0 selects game.DefaultPairCacheSize). Ignored unless PayoffCache.
	PayoffCacheSize int
	// SampleStride keeps every k-th generation in the recorded time series
	// (0 selects an automatic stride bounding series length to ~1000).
	SampleStride int
	// Observer, when non-nil, is invoked after every generation with the
	// Nature Agent's population, which carries strategies only (no payoffs
	// or fitness). It runs on the Nature Agent.
	Observer Observer
	// Control, when non-nil, is polled at the top of every generation (on
	// the Nature rank in the parallel engine, where it also tells the
	// workers to unwind). A non-nil return stops the run at that generation
	// boundary: the engine persists a resume snapshot to CheckpointSink
	// (when one is configured) and returns an error wrapping both
	// ErrStopped and the hook's error. Pause/cancel in a hosting service
	// builds on this: resume the stopped run from the persisted snapshot
	// with Config.Resume and the trajectory continues bit-identically (for
	// deterministic games).
	Control func(gen int) error
	// InitialStrategies, when non-nil, seeds the population (e.g. resuming
	// from a checkpoint) instead of random initialisation. Length must
	// equal NumSSets and every strategy must live in the Memory space.
	// Strategies are cloned; the caller's slice is not retained.
	InitialStrategies []strategy.Strategy
	// StartGeneration offsets the generation counter. Every per-generation
	// random stream is keyed by the absolute generation number, so a run
	// resumed from generation g's snapshot with StartGeneration = g
	// continues the original trajectory exactly (bit-identical for
	// deterministic games; for mixed strategies the resumed run resamples
	// cached match-ups once at the resume point).
	StartGeneration int
	// CheckpointEvery makes the Nature Agent persist a snapshot to
	// CheckpointSink every k completed generations (0 disables). The
	// snapshot captures strategies and cumulative counters — everything a
	// resume needs, since per-generation randomness re-derives from (Seed,
	// generation).
	CheckpointEvery int
	// CheckpointSink receives periodic snapshots; required when
	// CheckpointEvery > 0.
	CheckpointSink CheckpointSink
	// CheckpointSeries includes the sampled mean-fitness and cooperation
	// series (up to the snapshot generation) in every snapshot written to
	// CheckpointSink. A service that resumes a killed run from such a
	// snapshot can then serve a stitched series identical to an
	// uninterrupted run's — the series samples before the resume point
	// would otherwise exist only in the dead process's memory. Collection
	// never feeds back into the trajectory; snapshots merely grow by the
	// retained sample points (encoded as checkpoint stream version 3).
	CheckpointSeries bool
	// BaseCounters seeds the run's counters, so a run resumed from a
	// snapshot reports cumulative totals identical to an uninterrupted one.
	BaseCounters Counters
	// RecvTimeout, when positive, bounds every blocking receive in the
	// parallel engine (including collective-internal ones): a rank stalled
	// past the deadline fails with mpi.ErrRecvTimeout instead of hanging —
	// the detection half of worker-failure recovery. It must comfortably
	// exceed the longest per-generation compute phase.
	RecvTimeout time.Duration
	// FaultPlan, when non-nil, is installed into the parallel engine's
	// world: scripted deterministic fault injection for resilience tests.
	FaultPlan *mpi.FaultPlan
	// EventLog, when non-nil, receives fault-tolerance events (checkpoints
	// written, recoveries performed, ranks evicted) from the engine and
	// supervisor.
	EventLog *trace.EventLog
	// Evict enables live rank eviction in the parallel engine: a heartbeat
	// detector declares dead ranks, survivors agree on the surviving set and
	// shrink onto a sub-communicator, the dead rank's SSets are re-sharded
	// across the survivors, and the interrupted generation is replayed from
	// its generation-keyed random streams — no restart, and (with
	// FullRecompute) results bit-identical to a fault-free run. Replayed
	// generations re-invoke the Observer, as checkpoint restarts do.
	Evict bool
	// HeartbeatEvery is the liveness tick period when Evict is set (0
	// selects mpi.DefaultHeartbeatEvery).
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many consecutive missed heartbeat deadlines
	// declare a rank dead (0 selects mpi.DefaultHeartbeatMisses).
	HeartbeatMisses int
	// MinRanks is the smallest world live eviction may shrink to; below it
	// the engine falls back to checkpoint-restart (values < 2 mean 2, the
	// engine's floor of Nature plus one worker).
	MinRanks int
	// Metrics enables the observability layer: per-rank phase timers in
	// both engines and per-rank communication accounting in the parallel
	// one, aggregated into Result.Metrics at run end. Collection never
	// feeds back into the trajectory — parity and bit-exactness hold with
	// it on or off (see docs/OBSERVABILITY.md).
	Metrics bool
}

// Observer receives per-generation callbacks from the Nature Agent.
type Observer interface {
	// Generation is called after generation gen's evolution step with the
	// population (valid only during the call) and the generation's events.
	// The population carries strategies only: fitness lives with the ranks
	// that play the games, so an observer derives what it needs from the
	// strategies (cooperation, abundance) and the events.
	Generation(gen int, pop *Population, ev Events)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(gen int, pop *Population, ev Events)

// Generation implements Observer.
func (f ObserverFunc) Generation(gen int, pop *Population, ev Events) { f(gen, pop, ev) }

// Events records what the Nature Agent did in one generation.
type Events struct {
	// PCOccurred reports whether a pairwise comparison event fired.
	PCOccurred bool
	// Teacher and Learner are the compared SSets when PCOccurred.
	Teacher, Learner int
	// Adopted reports whether the learner copied the teacher's strategy.
	Adopted bool
	// MutationOccurred reports whether a random strategy replaced an SSet.
	MutationOccurred bool
	// Mutant is the SSet that received a new strategy when
	// MutationOccurred.
	Mutant int
}

// Default simulation parameters from the paper's §V-C.
const (
	DefaultPCRate = 0.10
	DefaultMu     = 0.05
	DefaultBeta   = 1.0
)

// DefaultConfig returns the paper's standard configuration for the given
// memory depth and population, with a 1000-generation run.
func DefaultConfig(memory, numSSets int) Config {
	return Config{
		Memory:      memory,
		NumSSets:    numSSets,
		Generations: 1000,
		Rules:       game.DefaultRules(),
		PCRate:      DefaultPCRate,
		Mu:          DefaultMu,
		Beta:        DefaultBeta,
	}
}

// Validate normalises defaults and checks the configuration.
func (c *Config) Validate() error {
	if c.Memory < 1 || c.Memory > 6 {
		return fmt.Errorf("sim: memory %d out of [1,6]", c.Memory)
	}
	if c.NumSSets < 2 {
		return fmt.Errorf("sim: need >= 2 SSets, got %d", c.NumSSets)
	}
	if c.AgentsPerSSet == 0 {
		c.AgentsPerSSet = c.NumSSets
	}
	if c.AgentsPerSSet < 1 {
		return fmt.Errorf("sim: agents per SSet %d < 1", c.AgentsPerSSet)
	}
	if c.Generations < 0 {
		return fmt.Errorf("sim: negative generations %d", c.Generations)
	}
	if c.Rules == (game.Rules{}) {
		c.Rules = game.DefaultRules()
	}
	if err := c.Rules.Validate(); err != nil {
		return err
	}
	// The negated comparisons reject NaN too: a NaN rate satisfies neither
	// bound yet would silently poison every downstream probability.
	if !(c.PCRate >= 0 && c.PCRate <= 1) {
		return fmt.Errorf("sim: PC rate %v out of [0,1]", c.PCRate)
	}
	if !(c.Mu >= 0 && c.Mu <= 1) {
		return fmt.Errorf("sim: mutation rate %v out of [0,1]", c.Mu)
	}
	if !(c.Beta >= 0) {
		return fmt.Errorf("sim: beta %v < 0", c.Beta)
	}
	if c.SampleStride < 0 {
		return fmt.Errorf("sim: sample stride %v < 0", c.SampleStride)
	}
	if c.SampleStride == 0 {
		c.SampleStride = c.Generations/1000 + 1
	}
	if c.StartGeneration < 0 {
		return fmt.Errorf("sim: negative start generation %d", c.StartGeneration)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("sim: negative checkpoint interval %d", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.CheckpointSink == nil {
		return fmt.Errorf("sim: CheckpointEvery %d set without a CheckpointSink", c.CheckpointEvery)
	}
	if c.RecvTimeout < 0 {
		return fmt.Errorf("sim: negative receive timeout %v", c.RecvTimeout)
	}
	if c.HeartbeatEvery < 0 {
		return fmt.Errorf("sim: negative heartbeat period %v", c.HeartbeatEvery)
	}
	if c.HeartbeatMisses < 0 {
		return fmt.Errorf("sim: negative heartbeat miss budget %d", c.HeartbeatMisses)
	}
	if c.MinRanks < 0 {
		return fmt.Errorf("sim: negative rank floor %d", c.MinRanks)
	}
	if c.ExactPayoffs && c.UseSearchEngine {
		return fmt.Errorf("sim: ExactPayoffs and UseSearchEngine are mutually exclusive")
	}
	if c.PayoffCacheSize < 0 {
		return fmt.Errorf("sim: negative payoff cache size %d", c.PayoffCacheSize)
	}
	if c.ExactPayoffs {
		// Probe exact-mode computability once, up front: a job whose Markov
		// analysis cannot run (rules the chain solver rejects) must fail
		// validation here rather than surface mid-run from playPair.
		probe := strategy.AllC(strategy.NewSpace(c.Memory))
		if _, _, err := analysis.MarkovPayoffN(c.Rules.Payoff, probe, probe, c.Rules.ErrorRate); err != nil {
			return fmt.Errorf("sim: exact payoffs not computable for this configuration: %w", err)
		}
	}
	if c.InitialStrategies != nil {
		if len(c.InitialStrategies) != c.NumSSets {
			return fmt.Errorf("sim: %d initial strategies for %d SSets", len(c.InitialStrategies), c.NumSSets)
		}
		sp := strategy.NewSpace(c.Memory)
		for i, s := range c.InitialStrategies {
			if s == nil {
				return fmt.Errorf("sim: nil initial strategy %d", i)
			}
			if s.Space() != sp {
				return fmt.Errorf("sim: initial strategy %d is not memory-%d", i, c.Memory)
			}
		}
	}
	return nil
}

// PopulationSize returns the total number of agents,
// NumSSets * AgentsPerSSet. With the paper's default AgentsPerSSet ==
// NumSSets this grows as the square of the SSet count (the mechanism behind
// its 10^18-agent populations).
func (c Config) PopulationSize() uint64 {
	return uint64(c.NumSSets) * uint64(c.AgentsPerSSet)
}

// GamesPerGeneration returns the number of two-player IPD matches one
// generation requires: every SSet measures its strategy against every other
// SSet's strategy.
func (c Config) GamesPerGeneration() uint64 {
	s := uint64(c.NumSSets)
	return s * (s - 1)
}

// OpponentsPerAgent returns how many opposing SSets each agent handles per
// generation (the paper's s/a split).
func (c Config) OpponentsPerAgent() float64 {
	return float64(c.NumSSets-1) / float64(c.AgentsPerSSet)
}

// AgentsPerProcessor returns the agent load per processor when the
// population is spread over procs processors (Table VIII of the paper).
func (c Config) AgentsPerProcessor(procs int) float64 {
	if procs < 1 {
		panic("sim: AgentsPerProcessor needs procs >= 1")
	}
	return float64(c.PopulationSize()) / float64(procs)
}
