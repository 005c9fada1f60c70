package sim

import (
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Derivation keys for the independent random streams of a run. Both engines
// derive the same streams from the master seed, which is what makes the
// sequential and parallel trajectories bit-identical.
const (
	keyNature = 0x4E41 // Nature Agent decisions
	keyMutant = 0x4D55 // mutant strategy generation
)

// decision is the Nature Agent's plan for one generation, computed before
// fitness is consulted: whether a PC event fires and which SSets it
// compares, and whether a mutation fires and which SSet it hits. The
// adoption itself depends on fitness and is resolved in nature.step.
type decision struct {
	pc               bool
	teacher, learner int
	mutate           bool
	mutant           int
}

// natureDecision draws generation gen's plan from the master seed. The
// stream is derived per generation, so the plan is independent of engine
// and rank layout.
func natureDecision(cfg *Config, master *rng.Source, gen int) decision {
	src := master.Derive(keyNature, uint64(gen))
	var d decision
	if src.Bernoulli(cfg.PCRate) {
		d.pc = true
		d.teacher, d.learner = src.Pair(cfg.NumSSets)
	}
	if src.Bernoulli(cfg.Mu) {
		d.mutate = true
		d.mutant = src.Intn(cfg.NumSSets)
	}
	return d
}

// resolveAdoption decides whether the learner adopts the teacher's strategy
// given their fitness values, per the paper's §IV-B: the Fermi probability
// (Equation 1), gated — unless AllowWorseAdoption — on the teacher strictly
// outperforming the learner. The random draw comes from the same
// per-generation Nature stream, offset so it cannot collide with
// natureDecision's draws.
func resolveAdoption(cfg *Config, master *rng.Source, gen int, piT, piL float64) bool {
	if !cfg.AllowWorseAdoption && piT <= piL {
		return false
	}
	src := master.Derive(keyNature, uint64(gen), 1)
	return src.Bernoulli(Fermi(cfg.Beta, piT, piL))
}

// mutantStrategy generates the replacement strategy for generation gen's
// mutation event (the paper's gen_new_strat). Deriving by generation keeps
// the mutant identical across engines.
func mutantStrategy(cfg *Config, master *rng.Source, sp strategy.Space, gen int) strategy.Strategy {
	src := master.Derive(keyMutant, uint64(gen))
	return randomStrategy(cfg.Kind, sp, src)
}

// nature is the paper's Nature Agent (§IV-B, §V-B), shared by both engines
// and free of any transport: the sequential engine drives it with fitness
// folded from its own payoff rows, the parallel engine's rank 0 with
// fitness gathered from the workers. It owns the master stream, the global
// strategy view, the Result under construction, the phase timer and the
// eviction rollback mark.
type nature struct {
	cfg    *Config
	master *rng.Source
	pop    *Population
	res    *Result
	pt     *phaseTimer
	end    int // first generation past the run
	mark   natureMark
}

// natureMark is the rollback point for live eviction: everything needed to
// replay the generation a failure interrupted. Strategy references can be
// shared because strategies are immutable — Adopt and SetStrategy replace
// entries, never mutate them in place.
type natureMark struct {
	gen             int
	strategies      []strategy.Strategy
	dirty           []bool
	counters        Counters
	fitLen, coopLen int
}

// newNature initialises the Nature Agent for a validated config.
func newNature(cfg *Config) *nature {
	master := rng.New(cfg.Seed)
	n := &nature{
		cfg:    cfg,
		master: master,
		pop:    NewPopulation(*cfg, master),
		res:    &Result{Counters: cfg.BaseCounters},
		end:    cfg.StartGeneration + cfg.Generations,
	}
	n.res.MeanFitness, _ = stats.NewSeries(cfg.SampleStride)
	n.res.Cooperation, _ = stats.NewSeries(cfg.SampleStride)
	if cfg.Metrics {
		n.pt = newPhaseTimer()
	}
	return n
}

// log appends e to the config's event log, when there is one.
func (n *nature) log(e trace.Event) {
	if n.cfg.EventLog != nil {
		n.cfg.EventLog.Append(e)
	}
}

// control polls Config.Control at the top of generation gen and returns the
// hook's stop cause, or nil to continue.
func (n *nature) control(gen int) error {
	if n.cfg.Control == nil {
		return nil
	}
	return n.cfg.Control(gen)
}

// step carries out generation gen's plan d on the strategy view, given the
// teacher's and learner's fitness (read only when d.pc): the PC learning
// event and the mutation event of the paper's Nature Agent pseudo-code.
func (n *nature) step(gen int, d decision, piT, piL float64) Events {
	ev := Events{
		PCOccurred:       d.pc,
		Teacher:          d.teacher,
		Learner:          d.learner,
		MutationOccurred: d.mutate,
		Mutant:           d.mutant,
	}
	ctr := &n.res.Counters
	if d.pc {
		ctr.PCEvents++
		if resolveAdoption(n.cfg, n.master, gen, piT, piL) {
			n.pop.Adopt(d.learner, d.teacher)
			ev.Adopted = true
			ctr.Adoptions++
		}
	}
	if d.mutate {
		ctr.Mutations++
		n.pop.SetStrategy(d.mutant, mutantStrategy(n.cfg, n.master, n.pop.Space(), gen))
	}
	return ev
}

// sampled reports whether generation gen lands in the recorded series.
func (n *nature) sampled(gen int) bool { return gen%n.cfg.SampleStride == 0 }

// finishGeneration closes generation gen: it records the series sample
// (meanFitness is read only when gen is sampled), calls the Observer, and
// writes a checkpoint on the absolute-generation cadence, so a resumed run
// keeps the original cadence instead of one phase-shifted by the restart.
func (n *nature) finishGeneration(gen int, ev Events, meanFitness float64) error {
	if n.sampled(gen) {
		n.res.MeanFitness.Observe(gen, meanFitness)
		n.res.Cooperation.Observe(gen, n.pop.MeanCooperationProb())
	}
	if n.cfg.Observer != nil {
		n.cfg.Observer.Generation(gen, n.pop, ev)
	}
	if n.cfg.CheckpointEvery > 0 && (gen+1)%n.cfg.CheckpointEvery == 0 {
		tc := n.pt.begin()
		if err := n.save(gen + 1); err != nil {
			return err
		}
		n.pt.end(PhaseCheckpoint, tc)
		n.log(trace.Event{Kind: trace.EventCheckpoint, Generation: gen + 1, Rank: 0})
	}
	return nil
}

// setMark records the top of generation gen as the eviction rollback point.
func (n *nature) setMark(gen int) {
	m := &n.mark
	m.gen = gen
	m.strategies = append(m.strategies[:0], n.pop.strategies...)
	m.dirty = append(m.dirty[:0], n.pop.dirty...)
	m.counters = n.res.Counters
	m.fitLen = n.res.MeanFitness.Len()
	m.coopLen = n.res.Cooperation.Len()
}

// rollback restores the state recorded by setMark and returns its
// generation.
func (n *nature) rollback() int {
	m := &n.mark
	copy(n.pop.strategies, m.strategies)
	copy(n.pop.dirty, m.dirty)
	n.res.Counters = m.counters
	n.res.MeanFitness.Truncate(m.fitLen)
	n.res.Cooperation.Truncate(m.coopLen)
	return m.gen
}
