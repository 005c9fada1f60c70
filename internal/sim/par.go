package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// Point-to-point tags used by the parallel engine.
const (
	tagFitness = 1 // owner -> Nature: payoff segment of a selected SSet
	tagRows    = 2 // owner -> Nature: final payoff block
)

// The work decomposition follows both of the paper's parallelism levels:
// the S×(S-1) matches of a generation form a flat, i-major list of game
// pairs, block-distributed over the worker ranks. When there are fewer
// workers than SSets a worker owns several whole rows (SSets); when there
// are more, a single SSet's row spans several workers — the paper's
// "agents within each strategy group" level, where each agent handles s/a
// opponents ("each processor handles the agents of between 1/2 to 8 full
// SSets", §VI-B).
//
// Bit-exact parity with the sequential engine is preserved by reassembling
// fitness in j-order: sequential fitness sums a row's payoffs left to
// right, so the Nature Agent concatenates the owners' contiguous segments
// in ascending column order and folds them in exactly that order.

// pairToIJ unflattens pair index i*(S-1)+jIdx into (i, j), with jIdx
// skipping the diagonal.
func pairToIJ(s, pair int) (i, j int) {
	i = pair / (s - 1)
	jIdx := pair % (s - 1)
	j = jIdx
	if jIdx >= i {
		j = jIdx + 1
	}
	return i, j
}

// blockRange returns worker w's contiguous range of the n work items
// (block-distributed, remainders to the leading workers).
func blockRange(n, nWorkers, w int) (lo, hi int) {
	base := n / nWorkers
	rem := n % nWorkers
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// rowSegment is one worker's contiguous piece of an SSet's game row.
type rowSegment struct {
	worker int // worker index (0-based)
	lo, hi int // pair-index range within the global flat list
}

// rowSegments lists, in ascending column order, the workers owning pieces
// of SSet i's row of games.
func rowSegments(s, nWorkers, i int) []rowSegment {
	rowLo := i * (s - 1)
	rowHi := rowLo + (s - 1)
	var segs []rowSegment
	for w := 0; w < nWorkers; w++ {
		lo, hi := blockRange(s*(s-1), nWorkers, w)
		if hi <= rowLo || lo >= rowHi {
			continue
		}
		segs = append(segs, rowSegment{worker: w, lo: max(lo, rowLo), hi: min(hi, rowHi)})
	}
	return segs
}

// update is the Nature Agent's end-of-generation broadcast: the strategy
// changes every rank must apply to its global view (paper §V-B, "global
// strategy updates" over the collective network).
type update struct {
	Adopted          bool
	Learner, Teacher int
	Mutated          bool
	Mutant           int
	MutantStrategy   strategy.Strategy
	// MeanFitnessWanted tells workers to join a fitness reduction for the
	// observability series this generation.
	MeanFitnessWanted bool
}

// WireBytes models the broadcast payload size for the communication
// counters: a few header words plus the mutant strategy table when present.
func (u update) WireBytes() uint64 {
	n := uint64(6 * 8)
	if u.MutantStrategy != nil {
		n += strategyWireBytes(u.MutantStrategy)
	}
	return n
}

// strategyWireBytes models one strategy table on the wire: a bit per state
// for a pure strategy, a float64 per state for a mixed one.
func strategyWireBytes(s strategy.Strategy) uint64 {
	states := uint64(s.Space().NumStates())
	if _, ok := s.(*strategy.Mixed); ok {
		return states * 8
	}
	return states / 8
}

// selection is the Nature Agent's mid-generation broadcast: which SSets are
// being compared (paper: "alerting of the SSets selected for pairwise
// comparison"). PC false means no comparison this generation.
type selection struct {
	PC               bool
	Teacher, Learner int
	// Stop tells workers the run is ending at this generation boundary on a
	// control-hook request (pause/cancel); no update broadcast follows and
	// every rank exits. It rides in the selection slot because workers play a
	// generation's games before hearing from Nature — this broadcast is the
	// first rendezvous where a stop can reach them.
	Stop bool
}

// WireBytes models the selection broadcast payload. Stop packs into the
// header words already counted, keeping the modelled size — and the pinned
// comm-byte accounting in the backend-parity tests — unchanged.
func (selection) WireBytes() uint64 { return 3 * 8 }

// resume is the Nature Agent's post-eviction broadcast on the shrunk
// communicator: the authoritative state every survivor replaces its own
// with. Workers may be behind (a dead mid-tree rank broke a broadcast relay)
// or ahead (buffered packets outran the failure) of Nature's position; a
// full-state resume makes the skew irrelevant.
type resume struct {
	// Gen is the generation the loop resumes at; Replay is the generation
	// whose random streams the full payoff recompute draws from
	// (min(Gen, last generation) — a finalization-phase resume replays the
	// final generation's streams).
	Gen, Replay int
	// Strategies is the global strategy view at the top of generation Gen.
	Strategies []strategy.Strategy
}

// WireBytes models the resume broadcast payload: two header words plus the
// full strategy tables.
func (r resume) WireBytes() uint64 {
	n := uint64(2 * 8)
	for _, s := range r.Strategies {
		n += strategyWireBytes(s)
	}
	return n
}

// evictable reports whether an engine error is a rank failure that live
// eviction can recover from: a revoked communicator or any error carrying a
// *RankFailedError (poisoned sends, abort causes). The caller's own faults
// (an injected kill firing on this rank, say) are not evictable.
func evictable(err error) bool {
	if errors.Is(err, mpi.ErrRevoked) {
		return true
	}
	var rf *mpi.RankFailedError
	return errors.As(err, &rf)
}

// minRanksFloor normalises Config.MinRanks against the engine's floor of
// Nature plus one worker.
func minRanksFloor(cfg *Config) int { return max(cfg.MinRanks, 2) }

// RunParallel executes the simulation on a world of `ranks` goroutine
// ranks: rank 0 is the Nature Agent, ranks 1..ranks-1 own block-distributed
// game pairs — the paper's Blue Gene mapping, including the agents-within-
// SSet split when workers outnumber SSets. The trajectory is identical to
// RunSequential with the same Config for every rank count.
//
// ranks must be at least 2; workers may not outnumber the games of one
// generation, S×(S-1).
func RunParallel(cfg Config, ranks int) (*Result, error) {
	if err := checkRanks(&cfg, ranks); err != nil {
		return nil, err
	}
	world := mpi.NewWorld(ranks)
	return runWorld(cfg, world, world.Run)
}

// checkRanks validates cfg (normalising its defaults) for a parallel world
// of ranks: Nature plus at least one worker, and no more workers than the
// games of one generation.
func checkRanks(cfg *Config, ranks int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if ranks < 2 {
		return fmt.Errorf("sim: parallel engine needs >= 2 ranks (Nature + workers), got %d", ranks)
	}
	if games := cfg.NumSSets * (cfg.NumSSets - 1); ranks-1 > games {
		return fmt.Errorf("sim: %d workers exceed %d games per generation", ranks-1, games)
	}
	return nil
}

// runWorld is the world runner RunParallel and RunWorker share. It installs
// the Config's world options (metrics, fault plan, receive deadline,
// eviction), runs the rank bodies through run — world.Run for an
// in-process world, world.RunLocal for the one hosted rank of a networked
// world — and completes the Nature rank's Result. A process hosting only a
// worker returns (nil, nil); a control stop returns the partial Result
// with the error.
func runWorld(cfg Config, world *mpi.World, run func(body func(c *mpi.Comm) error) error) (*Result, error) {
	if cfg.Metrics {
		world.EnableMetrics()
	}
	if cfg.FaultPlan != nil {
		world.InstallFaultPlan(cfg.FaultPlan)
	}
	if cfg.RecvTimeout > 0 {
		world.SetRecvTimeout(cfg.RecvTimeout)
	}
	if cfg.Evict {
		world.EnableEviction(cfg.HeartbeatEvery, cfg.HeartbeatMisses)
	}
	var result *Result
	start := time.Now() //egdlint:allow determinism elapsed-time metadata for Result.Elapsed, not part of the trajectory
	err := run(func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			res, err := natureRank(cfg, c)
			// On a control-hook stop res is the partial result (series up to
			// the stop); keep it so the caller can stitch across a pause.
			result = res
			return err
		}
		return workerRank(cfg, c)
	})
	if err != nil || result == nil {
		return result, err
	}
	result.Elapsed = time.Since(start) //egdlint:allow determinism elapsed-time metadata, not part of the trajectory
	result.Evictions = len(world.Evictions())
	result.Ranks = world.Size() - result.Evictions
	if cfg.Metrics && result.Metrics != nil {
		// A networked world's accounting is this process's view of the wire
		// (see docs/TRANSPORT.md); an in-process world has no transport.
		result.Metrics.Comm = world.CommMetricsSnapshot()
		result.Metrics.Transport = world.TransportStats()
		if cfg.EventLog != nil {
			stats := world.Stats()
			cfg.EventLog.Append(trace.Event{Kind: trace.EventMetrics, Generation: cfg.StartGeneration + cfg.Generations, Rank: -1,
				Detail: fmt.Sprintf("games=%d p2p_msgs=%d p2p_bytes=%d collectives=%d",
					result.Counters.GamesPlayed, stats.PointToPointMessages, stats.PointToPointBytes, stats.CollectiveOps)})
		}
	}
	return result, nil
}

// natureRank is rank 0: the paper's Nature Agent. It drives the shared
// nature state through the evolutionary schedule, gathers selected fitness
// values point-to-point, and broadcasts selections and updates.
//
// With cfg.Evict, a detected rank failure is recovered live at the current
// generation boundary: Nature agrees with the survivors on the new rank
// set, shrinks onto it, rolls its state back to the top of the interrupted
// generation, and rebroadcasts that state so the survivors re-shard the
// dead rank's game pairs and replay the generation from its
// generation-keyed random streams — bit-identical to a fault-free run for
// deterministic games.
func natureRank(cfg Config, c *mpi.Comm) (*Result, error) {
	n := newNature(&cfg)
	s := cfg.NumSSets
	gen := cfg.StartGeneration
	// pendingFull marks that the workers' next refresh replays every owned
	// pair (their payoff blocks were re-sharded by an eviction); crossCheck
	// counts the games scheduled since the last world (re)synchronisation,
	// mirroring the workers' local tallies, which reset on resume.
	pendingFull := false
	var crossCheck uint64
	seenEvictions := 0
	row := make([]float64, 0, s-1)

	// recvFitness reassembles SSet i's payoff row from its segments in
	// ascending column order, so its fitness matches the sequential engine
	// bit for bit — at any worker count, which is what makes post-eviction
	// re-sharding trajectory-invariant.
	recvFitness := func(c *mpi.Comm, i int) (float64, error) {
		row = row[:0]
		for _, seg := range rowSegments(s, c.Size()-1, i) {
			msg, err := c.Recv(1+seg.worker, tagFitness)
			if err != nil {
				return 0, err
			}
			row = append(row, msg.Payload.([]float64)...)
		}
		return rowFitness(row), nil
	}

	oneGeneration := func(c *mpi.Comm) error {
		// Count the games the workers are scheduling this generation before
		// the dirty marks are cleared. Keeping this tally on Nature lets
		// snapshots carry an up-to-date GamesPlayed without an
		// every-generation reduction. A post-eviction replay recomputes
		// every pair.
		scheduled := n.pop.scheduledGames(pendingFull || cfg.FullRecompute)
		pendingFull = false
		n.res.Counters.GamesPlayed += scheduled
		crossCheck += scheduled
		n.pop.clearDirty()
		d := natureDecision(&cfg, n.master, gen)

		// Announce the PC selection to all ranks (collective network).
		tb := n.pt.begin()
		if _, err := c.Bcast(0, selection{PC: d.pc, Teacher: d.teacher, Learner: d.learner}); err != nil {
			return err
		}
		n.pt.end(PhaseBroadcast, tb)

		var piT, piL float64
		if d.pc {
			// The owners return the selected SSets' payoff segments
			// point-to-point (torus network in the paper); teacher first,
			// then learner, in segment order.
			tf := n.pt.begin()
			var err error
			if piT, err = recvFitness(c, d.teacher); err != nil {
				return err
			}
			if piL, err = recvFitness(c, d.learner); err != nil {
				return err
			}
			n.pt.end(PhaseFitnessComm, tf)
		}
		ev := n.step(gen, d, piT, piL)

		// Broadcast the global strategy update (collective network).
		u := update{Adopted: ev.Adopted, Mutated: ev.MutationOccurred, MeanFitnessWanted: n.sampled(gen)}
		if ev.Adopted {
			u.Learner, u.Teacher = d.learner, d.teacher
		}
		if ev.MutationOccurred {
			u.Mutant, u.MutantStrategy = d.mutant, n.pop.Strategy(d.mutant)
		}
		tb = n.pt.begin()
		if _, err := c.Bcast(0, u); err != nil {
			return err
		}
		n.pt.end(PhaseBroadcast, tb)

		mean := 0.0
		if u.MeanFitnessWanted {
			// Join the workers' payoff reduction; Nature contributes 0.
			tr := n.pt.begin()
			total, err := c.Reduce(0, 0, mpi.OpSum)
			if err != nil {
				return err
			}
			n.pt.end(PhaseReduce, tr)
			mean = total / float64(s*(s-1))
		}
		return n.finishGeneration(gen, ev, mean)
	}

	finalize := func(c *mpi.Comm) error {
		// A resume directly into finalization replays the last generation's
		// games wholesale; account for them in the cross-check (the restored
		// GamesPlayed already covers the run's schedule).
		if pendingFull {
			crossCheck += n.pop.scheduledGames(true)
			pendingFull = false
		}
		// Collect the final payoff blocks and compute all fitness values in
		// the sequential engine's order.
		nWorkers := c.Size() - 1
		flat := make([]float64, s*(s-1))
		tf := n.pt.begin()
		for w := 0; w < nWorkers; w++ {
			msg, err := c.Recv(1+w, tagRows)
			if err != nil {
				return err
			}
			lo, _ := blockRange(s*(s-1), nWorkers, w)
			copy(flat[lo:], msg.Payload.([]float64))
		}
		n.pt.end(PhaseFitnessComm, tf)
		// The workers' reduced game count cross-checks Nature's scheduled
		// tally: both sides evaluate the same refresh predicate over the
		// same window, so any divergence means the global views drifted.
		tr := n.pt.begin()
		games, err := c.Reduce(0, 0, mpi.OpSum)
		if err != nil {
			return err
		}
		n.pt.end(PhaseReduce, tr)
		if uint64(games) != crossCheck {
			return fmt.Errorf("sim: workers played %d games since the last synchronisation, Nature scheduled %d — global views diverged",
				uint64(games), crossCheck)
		}
		// Collect every rank's phase timings. Gated on Metrics so the
		// collective-operation counters existing fault scripts key on are
		// unchanged when observability is off; symmetric with the workers'
		// finalize.
		if cfg.Metrics {
			snapsAny, err := c.Gather(0, n.pt.snapshot(c.OrigRank()))
			if err != nil {
				return err
			}
			rm := &RunMetrics{}
			for _, a := range snapsAny {
				rm.Phases = append(rm.Phases, a.(RankPhaseSnapshot))
			}
			sort.Slice(rm.Phases, func(i, j int) bool { return rm.Phases[i].Rank < rm.Phases[j].Rank })
			n.res.Metrics = rm
		}
		// In eviction mode a final barrier keeps workers resident until
		// Nature has everything, so a late failure still finds every
		// survivor able to agree. Gated on Evict: an unconditional barrier
		// would shift the operation counters existing fault scripts key on.
		if cfg.Evict {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		n.res.FinalFitness = fitnesses(flat, s)
		return nil
	}

	// recoverLive runs the survivor-side eviction protocol: agree on the
	// surviving set, shrink onto it, roll back to the mark, and rebroadcast
	// the authoritative state. Each loop iteration is one agreement epoch; a
	// failure landing mid-recovery starts another.
	recoverLive := func(c *mpi.Comm, cause error) (*mpi.Comm, error) {
		if !cfg.Evict {
			return nil, cause
		}
		cur := cause
		for {
			if !evictable(cur) {
				return nil, cause
			}
			surv, err := c.Agree()
			if err != nil {
				return nil, cause
			}
			evs := c.Evictions()
			for _, e := range evs[seenEvictions:] {
				n.log(trace.Event{Kind: trace.EventEviction, Generation: n.mark.gen, Rank: e.Rank,
					Detail: e.Err.Error()})
			}
			seenEvictions = len(evs)
			if len(surv) < minRanksFloor(&cfg) {
				n.log(trace.Event{Kind: trace.EventEvictionFailed, Generation: n.mark.gen, Rank: -1,
					Detail: fmt.Sprintf("%d survivors below floor %d; falling back to checkpoint restart",
						len(surv), minRanksFloor(&cfg))})
				return nil, cause
			}
			nc, err := c.Shrink(surv)
			if err != nil {
				cur = err
				continue
			}
			gen = n.rollback()
			pendingFull = true
			crossCheck = 0
			rs := resume{
				Gen:        gen,
				Replay:     min(gen, n.end-1),
				Strategies: append([]strategy.Strategy(nil), n.pop.strategies...),
			}
			if _, err := nc.Bcast(0, rs); err != nil {
				c, cur = nc, err
				continue
			}
			return nc, nil
		}
	}

	for gen < n.end {
		// Control poll at the generation boundary: a stop is announced via a
		// Stop selection broadcast (the workers' next rendezvous — they are
		// already playing this generation's games) before Nature persists the
		// resume snapshot and exits.
		if cause := n.control(gen); cause != nil {
			if _, err := c.Bcast(0, selection{Stop: true}); err != nil {
				return nil, err
			}
			return n.res, n.stop(gen, cause)
		}
		if cfg.Evict {
			n.setMark(gen)
		}
		err := oneGeneration(c)
		if err == nil {
			gen++
			continue
		}
		nc, rerr := recoverLive(c, err)
		if rerr != nil {
			return nil, rerr
		}
		c = nc
	}
	if cfg.Evict {
		n.setMark(n.end) // the finalization resume point
	}
	for {
		err := finalize(c)
		if err == nil {
			break
		}
		nc, rerr := recoverLive(c, err)
		if rerr != nil {
			return nil, rerr
		}
		c = nc
	}
	n.res.Final = n.pop.Snapshot()
	return n.res, nil
}

// workerRank is ranks 1..P-1: it owns a contiguous block of game pairs,
// keeps the same global strategy view as Nature, plays its matches locally,
// and applies broadcast updates.
//
// With cfg.Evict, a rank failure drops the worker into the survivor-side
// eviction protocol: agree, shrink, then adopt Nature's resume broadcast
// wholesale — new dense rank, re-sharded pair block, authoritative strategy
// view — and replay every owned pair from the interrupted generation's
// random streams. If Nature itself is among the dead, live eviction cannot
// continue (no one can re-drive the schedule) and the worker returns the
// failure so the restart supervisor takes over.
func workerRank(cfg Config, c *mpi.Comm) error {
	master := rng.New(cfg.Seed)
	pop := NewPopulation(cfg, master) // same deterministic initialisation
	s := cfg.NumSSets
	end := cfg.StartGeneration + cfg.Generations
	kern := newPayoffKernel(&cfg)

	lo, hi := blockRange(s*(s-1), c.Size()-1, c.Rank()-1)
	// payoffs[k-lo] is pair k's mean per-round payoff for its row SSet.
	payoffs := make([]float64, hi-lo)
	games := uint64(0)
	gen := cfg.StartGeneration
	// pendingFull marks that an eviction re-sharded this worker's block:
	// the next pass replays every owned pair from replayGen's streams.
	pendingFull := false
	replayGen := 0
	var pt *phaseTimer
	if cfg.Metrics {
		pt = newPhaseTimer()
	}

	// refresh replays the owned pairs whose participants changed — or, after
	// a re-shard, every owned pair. A pairPayoff failure (exact-mode
	// analysis error) aborts the pass: it is a configuration fault, not a
	// rank failure, so it propagates out of the run instead of triggering
	// eviction. games counts every owned pair the schedule touched, cache
	// hits included — Nature's cross-check tallies scheduled games, and a
	// memo hit still delivers a scheduled payoff.
	refresh := func() error {
		g, full := gen, cfg.FullRecompute
		if pendingFull {
			g, full, pendingFull = replayGen, true, false
		}
		played, err := refreshPairs(&cfg, pop, master, kern, g, full, lo, payoffs)
		games += played
		return err
	}
	// segment extracts the owned, contiguous payoff slice of SSet i's row
	// (nil when this worker owns none of it).
	segment := func(i int) []float64 {
		rowLo, rowHi := i*(s-1), (i+1)*(s-1)
		segLo, segHi := max(lo, rowLo), min(hi, rowHi)
		if segLo >= segHi {
			return nil
		}
		out := make([]float64, segHi-segLo)
		copy(out, payoffs[segLo-lo:segHi-lo])
		return out
	}

	oneGeneration := func(c *mpi.Comm) error {
		// Game dynamics: replay this worker's pairs.
		tg := pt.begin()
		if err := refresh(); err != nil {
			return err
		}
		pt.end(PhaseGamePlay, tg)
		pop.clearDirty()

		// Receive the PC selection.
		tb := pt.begin()
		selAny, err := c.Bcast(0, nil)
		if err != nil {
			return err
		}
		pt.end(PhaseBroadcast, tb)
		sel := selAny.(selection)
		if sel.Stop {
			// Nature's control hook stopped the run; the outer loop turns
			// this into a clean worker exit.
			return fmt.Errorf("sim: worker %d: %w", c.Rank(), ErrStopped)
		}
		if sel.PC {
			// Owners of the selected rows return their segments; teacher
			// before learner so Nature's ordered receives match when one
			// worker owns pieces of both.
			tf := pt.begin()
			if seg := segment(sel.Teacher); seg != nil {
				if err := c.Send(0, tagFitness, seg); err != nil {
					return err
				}
			}
			if seg := segment(sel.Learner); seg != nil {
				if err := c.Send(0, tagFitness, seg); err != nil {
					return err
				}
			}
			pt.end(PhaseFitnessComm, tf)
		}

		// Apply the global strategy update.
		tb = pt.begin()
		uAny, err := c.Bcast(0, nil)
		if err != nil {
			return err
		}
		pt.end(PhaseBroadcast, tb)
		u := uAny.(update)
		if u.Adopted {
			pop.Adopt(u.Learner, u.Teacher)
		}
		if u.Mutated {
			pop.SetStrategy(u.Mutant, u.MutantStrategy.Clone())
		}
		if u.MeanFitnessWanted {
			partial := 0.0
			for _, v := range payoffs {
				partial += v
			}
			tr := pt.begin()
			if _, err := c.Reduce(0, partial, mpi.OpSum); err != nil {
				return err
			}
			pt.end(PhaseReduce, tr)
		}
		return nil
	}

	finalize := func(c *mpi.Comm) error {
		// A resume directly into finalization still rebuilds the re-sharded
		// block before shipping it.
		if pendingFull {
			tg := pt.begin()
			if err := refresh(); err != nil {
				return err
			}
			pt.end(PhaseGamePlay, tg)
		}
		// Ship the final payoff block and the game counter to Nature.
		final := make([]float64, len(payoffs))
		copy(final, payoffs)
		tf := pt.begin()
		if err := c.Send(0, tagRows, final); err != nil {
			return err
		}
		pt.end(PhaseFitnessComm, tf)
		tr := pt.begin()
		if _, err := c.Reduce(0, float64(games), mpi.OpSum); err != nil {
			return err
		}
		pt.end(PhaseReduce, tr)
		// Ship the phase timings (plus this rank's cache counters when
		// caching is on); mirrors Nature's metrics Gather.
		if cfg.Metrics {
			snap := pt.snapshot(c.OrigRank())
			snap.Cache = kern.cacheStats()
			if _, err := c.Gather(0, snap); err != nil {
				return err
			}
		}
		// Mirror Nature's eviction-mode barrier: stay resident until every
		// rank is done, so a late failure still finds a full survivor set.
		if cfg.Evict {
			return c.Barrier()
		}
		return nil
	}

	// recoverLive is the worker side of the eviction protocol; it mirrors
	// Nature's agreement epochs exactly — one Agree per entry, another per
	// failed Shrink or resume broadcast — which is what keeps the rendezvous
	// aligned across divergent failure interleavings.
	recoverLive := func(c *mpi.Comm, cause error) (*mpi.Comm, error) {
		if !cfg.Evict {
			return nil, cause
		}
		cur := cause
		for {
			if !evictable(cur) {
				return nil, cause
			}
			surv, err := c.Agree()
			if err != nil {
				return nil, cause
			}
			if len(surv) == 0 || surv[0] != 0 {
				// Nature itself died: fall back to checkpoint restart. The
				// lowest survivor records the decision once for the trace.
				if len(surv) > 0 && c.OrigRank() == surv[0] && cfg.EventLog != nil {
					cfg.EventLog.Append(trace.Event{Kind: trace.EventEvictionFailed, Generation: gen, Rank: 0,
						Detail: "nature rank failed; falling back to checkpoint restart"})
				}
				return nil, cause
			}
			if len(surv) < minRanksFloor(&cfg) {
				return nil, cause
			}
			nc, err := c.Shrink(surv)
			if err != nil {
				cur = err
				continue
			}
			rsAny, err := nc.Bcast(0, nil)
			if err != nil {
				c, cur = nc, err
				continue
			}
			rs := rsAny.(resume)
			// Adopt the authoritative state wholesale: the worker may be a
			// generation ahead of or behind Nature (a dead mid-tree rank can
			// break a broadcast relay part-way), so local state is untrusted.
			for i, st := range rs.Strategies {
				pop.strategies[i] = st.Clone()
			}
			pop.clearDirty()
			gen = rs.Gen
			replayGen = rs.Replay
			pendingFull = true
			lo, hi = blockRange(s*(s-1), nc.Size()-1, nc.Rank()-1)
			payoffs = make([]float64, hi-lo)
			games = 0
			return nc, nil
		}
	}

	for gen < end {
		err := oneGeneration(c)
		if err == nil {
			gen++
			continue
		}
		if errors.Is(err, ErrStopped) {
			// Control stop announced by Nature: exit cleanly so the run's
			// only error is Nature's, carrying the snapshot outcome.
			return nil
		}
		nc, rerr := recoverLive(c, err)
		if rerr != nil {
			return rerr
		}
		c = nc
	}
	for {
		err := finalize(c)
		if err == nil {
			return nil
		}
		nc, rerr := recoverLive(c, err)
		if rerr != nil {
			return rerr
		}
		c = nc
	}
}
