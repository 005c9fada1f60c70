// Command egdsim runs one evolutionary game dynamics simulation and reports
// the outcome: the final strategy distribution, the WSLS fraction, fitness
// and cooperation trajectories, and (optionally) a per-generation CSV trace
// and a binary checkpoint of the final population.
//
// Examples:
//
//	egdsim -memory 1 -ssets 64 -gens 5000
//	egdsim -memory 1 -ssets 100 -gens 20000 -mixed -error 0.01 -beta 10
//	egdsim -memory 6 -ssets 32 -gens 100 -ranks 8 -full
//	egdsim -ssets 32 -gens 2000 -ranks 4 -checkpoint-every 100 \
//	    -checkpoint-file run.ckpt -inject-fault rank=2,after=500
//	egdsim -ssets 32 -gens 2000 -ranks 4 -evict -inject-fault rank=2,after=500
//	egdsim -ssets 32 -gens 1000 -ranks 4 -metrics run-metrics.json -pprof-cpu cpu.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "egdsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("egdsim", flag.ContinueOnError)
	var (
		memory    = fs.Int("memory", 1, "strategy memory depth n in [1,6]")
		ssets     = fs.Int("ssets", 64, "number of Strategy Sets")
		gens      = fs.Int("gens", 1000, "generations to simulate")
		rounds    = fs.Int("rounds", 200, "IPD rounds per match (paper: 200)")
		errRate   = fs.Float64("error", 0, "per-move execution error probability")
		pcRate    = fs.Float64("pcrate", sim.DefaultPCRate, "pairwise comparison rate (paper: 0.10)")
		mu        = fs.Float64("mu", sim.DefaultMu, "mutation rate (paper: 0.05)")
		beta      = fs.Float64("beta", sim.DefaultBeta, "Fermi selection intensity")
		mixed     = fs.Bool("mixed", false, "evolve probabilistic (mixed) strategies")
		seed      = fs.Uint64("seed", 1, "master random seed")
		ranks     = fs.Int("ranks", 1, "1 = sequential; >= 2 = parallel engine (Nature + workers)")
		full      = fs.Bool("full", false, "recompute all fitness every generation (paper timing mode)")
		search    = fs.Bool("search", false, "use the paper-faithful linear find_state lookup")
		fermi     = fs.Bool("fermi", false, "unconditional Fermi adoption (no teacher-better gate; Traulsen et al.)")
		exact     = fs.Bool("exact", false, "exact infinite-game Markov payoffs instead of sampled matches")
		payCache  = fs.Bool("payoff-cache", false, "memoize strategy-pair payoffs (bit-identical results; see docs/KERNEL.md)")
		payCacheN = fs.Int("payoff-cache-size", 0, "payoff cache entries per rank for -payoff-cache (0 = engine default)")
		csvPath   = fs.String("trace", "", "write per-generation CSV trace to this file")
		ckpt      = fs.String("checkpoint", "", "write final population checkpoint to this file")
		resume    = fs.String("resume", "", "resume from a checkpoint file (continues its trajectory)")
		ckptEvery = fs.Int("checkpoint-every", 0, "write a recovery checkpoint every N generations")
		ckptFile  = fs.String("checkpoint-file", "", "recovery checkpoint path for -checkpoint-every (default: the -checkpoint path)")
		inject    = fs.String("inject-fault", "", "scripted fault specs, ';'-separated, e.g. 'rank=2,after=500' (see internal/mpi.ParseFault)")
		restarts  = fs.Int("max-restarts", 3, "restart budget after rank failures (parallel engine; <= 0 disables recovery)")
		degrade   = fs.Bool("degrade", false, "on worker failure, restart on one fewer rank")
		deadline  = fs.Duration("worker-timeout", 0, "receive deadline that turns a stalled rank into a detectable failure (parallel engine)")
		evict     = fs.Bool("evict", false, "recover from worker failures live: heartbeat detection, communicator shrink, in-flight re-shard (parallel engine)")
		hbEvery   = fs.Duration("heartbeat-every", 0, "liveness tick interval for -evict (0 = engine default)")
		hbMisses  = fs.Int("heartbeat-misses", 0, "consecutive missed ticks before -evict declares a rank dead (0 = engine default)")
		minRanks  = fs.Int("min-ranks", 0, "smallest world -evict may shrink to before falling back to restart (0 = engine floor of 2)")
		mapRows   = fs.Int("map", 0, "print an ASCII strategy map of up to this many SSets")
		top       = fs.Int("top", 5, "report the top-k most abundant final strategies")
		metricsTo = fs.String("metrics", "", "collect run metrics (phase timers, per-rank comm accounting) and write a snapshot to this file")
		metricsFm = fs.String("metrics-format", "json", "metrics snapshot format: json or prom (Prometheus text exposition)")
		pprofCPU  = fs.String("pprof-cpu", "", "write a CPU profile of the run to this file")
		pprofMem  = fs.String("pprof-mem", "", "write a heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := sim.DefaultConfig(*memory, *ssets)
	cfg.Generations = *gens
	cfg.Rules.Rounds = *rounds
	cfg.Rules.ErrorRate = *errRate
	cfg.PCRate = *pcRate
	cfg.Mu = *mu
	cfg.Beta = *beta
	if *mixed {
		cfg.Kind = sim.MixedStrategies
	}
	cfg.Seed = *seed
	cfg.FullRecompute = *full
	cfg.UseSearchEngine = *search
	cfg.AllowWorseAdoption = *fermi
	cfg.ExactPayoffs = *exact
	cfg.PayoffCache = *payCache
	cfg.PayoffCacheSize = *payCacheN
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			return err
		}
		snap, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		// The checkpoint supplies the seed; -gens counts generations past it.
		cfg.Seed = snap.Seed
		cfg.StartGeneration = int(snap.Generation)
		if cfg, err = cfg.Resume(snap); err != nil {
			return fmt.Errorf("-resume %s: %w", *resume, err)
		}
		fmt.Fprintf(out, "resuming from %s at generation %d (seed %d)\n", *resume, snap.Generation, snap.Seed)
	}
	if *ranks < 2 && (*inject != "" || *degrade || *deadline > 0 || *evict) {
		return fmt.Errorf("-inject-fault, -degrade, -worker-timeout and -evict need the parallel engine (-ranks >= 2)")
	}
	if *ckptEvery > 0 {
		path := *ckptFile
		if path == "" {
			path = *ckpt
		}
		if path == "" {
			return fmt.Errorf("-checkpoint-every requires -checkpoint-file (or -checkpoint) FILE")
		}
		cfg.CheckpointEvery = *ckptEvery
		cfg.CheckpointSink = &sim.FileSink{Path: path}
	}
	if *inject != "" {
		plan := mpi.NewFaultPlan()
		for _, spec := range strings.Split(*inject, ";") {
			spec = strings.TrimSpace(spec)
			if spec == "" {
				continue
			}
			f, err := mpi.ParseFault(spec)
			if err != nil {
				return err
			}
			plan.Add(f)
		}
		cfg.FaultPlan = plan
	}
	cfg.RecvTimeout = *deadline
	cfg.Evict = *evict
	cfg.HeartbeatEvery = *hbEvery
	cfg.HeartbeatMisses = *hbMisses
	cfg.MinRanks = *minRanks
	cfg.Metrics = *metricsTo != ""
	if *metricsFm != "json" && *metricsFm != "prom" {
		return fmt.Errorf("-metrics-format must be json or prom, got %q", *metricsFm)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	var rec *trace.Recorder
	var observers []sim.Observer
	if *csvPath != "" {
		rec = trace.NewRecorder(100000)
		observers = append(observers, sim.ObserverFunc(func(gen int, pop *sim.Population, ev sim.Events) {
			rec.Add(trace.Record{
				Generation:  gen,
				Cooperation: pop.MeanCooperationProb(),
				Distinct:    pop.Abundance().Distinct(),
				PC:          ev.PCOccurred,
				Adopted:     ev.Adopted,
				Mutated:     ev.MutationOccurred,
			})
		}))
	}
	switch len(observers) {
	case 1:
		cfg.Observer = observers[0]
	default:
		if len(observers) > 1 {
			all := observers
			cfg.Observer = sim.ObserverFunc(func(gen int, pop *sim.Population, ev sim.Events) {
				for _, o := range all {
					o.Generation(gen, pop, ev)
				}
			})
		}
	}

	resilient := cfg.FaultPlan != nil || cfg.CheckpointEvery > 0 || *degrade || cfg.RecvTimeout > 0 || cfg.Evict
	if cfg.CheckpointEvery > 0 || (resilient && *ranks >= 2) {
		cfg.EventLog = trace.NewEventLog()
	}
	if *pprofCPU != "" {
		f, err := os.Create(*pprofCPU)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var (
		res *sim.Result
		err error
	)
	switch {
	case *ranks >= 2 && resilient:
		budget := *restarts
		if budget <= 0 {
			budget = -1 // RestartPolicy treats negative as "no restarts"
		}
		res, err = sim.RunParallelResilient(cfg, *ranks, sim.RestartPolicy{
			MaxRestarts: budget,
			Backoff:     100 * time.Millisecond,
			MaxBackoff:  2 * time.Second,
			Degrade:     *degrade,
		})
	case *ranks >= 2:
		res, err = sim.RunParallel(cfg, *ranks)
	default:
		res, err = sim.RunSequential(cfg)
	}
	if err != nil {
		return err
	}
	if *pprofCPU != "" {
		pprof.StopCPUProfile() // idempotent with the deferred stop
		fmt.Fprintf(out, "cpu profile -> %s\n", *pprofCPU)
	}
	if *pprofMem != "" {
		runtime.GC() // flush unreachable allocations so the heap profile reflects live data
		f, ferr := os.Create(*pprofMem)
		if ferr != nil {
			return ferr
		}
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			f.Close()
			return fmt.Errorf("write heap profile: %w", werr)
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
		fmt.Fprintf(out, "heap profile -> %s\n", *pprofMem)
	}

	fmt.Fprintf(out, "run: memory-%d, %d SSets, %d generations, %d ranks, %.2fs\n",
		*memory, *ssets, *gens, res.Ranks, res.Elapsed.Seconds())
	fmt.Fprintf(out, "population: %d agents (agents/SSet = #SSets), %d games/generation when fully replayed\n",
		cfg.PopulationSize(), cfg.GamesPerGeneration())
	fmt.Fprintf(out, "work: %d games, %d PC events, %d adoptions, %d mutations\n",
		res.Counters.GamesPlayed, res.Counters.PCEvents, res.Counters.Adoptions, res.Counters.Mutations)
	if cfg.EventLog != nil {
		fmt.Fprintf(out, "fault tolerance: %d checkpoints, %d faults, %d recoveries, %d degradations, %d restarts, %d evictions\n",
			cfg.EventLog.Count(trace.EventCheckpoint), cfg.EventLog.Count(trace.EventFault),
			cfg.EventLog.Count(trace.EventRecovery), cfg.EventLog.Count(trace.EventDegrade),
			res.Restarts, res.Evictions)
		for _, e := range cfg.EventLog.Events() {
			if e.Kind == trace.EventCheckpoint {
				continue // one per cadence tick; the count above suffices
			}
			detail := strings.ReplaceAll(e.Detail, "\n", "; ") // errors.Join is multi-line
			fmt.Fprintf(out, "  %s: rank %d, attempt %d  %s\n", e.Kind, e.Rank, e.Attempt, detail)
		}
	}
	if res.Metrics != nil {
		printPhaseSummary(out, res)
	}
	if g, v, ok := res.MeanFitness.Last(); ok {
		fmt.Fprintf(out, "final mean fitness (gen %d): %.4f  [1=all-defect .. 3=full cooperation]\n", g, v)
	}
	if g, v, ok := res.Cooperation.Last(); ok {
		fmt.Fprintf(out, "final cooperation probability (gen %d): %.4f\n", g, v)
	}
	sp := strategy.NewSpace(*memory)
	fmt.Fprintf(out, "WSLS fraction: %.3f\n", res.FractionNear(strategy.WSLS(sp)))
	fmt.Fprintf(out, "distinct strategies: %d of %d SSets\n", res.FinalAbundance().Distinct(), *ssets)
	fmt.Fprintln(out, "most abundant strategies:")
	for _, line := range core.SortedAbundanceNames(res, *top) {
		fmt.Fprintln(out, "  ", line)
	}
	if *mapRows > 0 {
		fmt.Fprintln(out, "strategy map (rows = SSets, cols = states; '.'=C '#'=D):")
		fmt.Fprint(out, core.AsciiMap(res.Final, *mapRows))
	}

	if rec != nil {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.WriteCSV(f); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d records -> %s\n", rec.Len(), *csvPath)
	}
	if *ckpt != "" {
		if err := writeCheckpoint(*ckpt, uint64(cfg.StartGeneration+*gens), cfg.Seed, *memory, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpoint -> %s\n", *ckpt)
	}
	if *metricsTo != "" {
		if err := writeMetrics(*metricsTo, *metricsFm, res); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics (%s) -> %s\n", *metricsFm, *metricsTo)
	}
	return nil
}

// printPhaseSummary renders the per-phase wall-time table and the paper's
// Table-V-style compute/communication split.
func printPhaseSummary(out io.Writer, res *sim.Result) {
	totals := res.Metrics.PhaseTotals()
	var sum time.Duration
	for _, p := range totals {
		sum += time.Duration(p.Nanos)
	}
	fmt.Fprintln(out, "phase summary (wall time summed across ranks):")
	fmt.Fprintf(out, "  %-14s %10s %14s %7s\n", "phase", "calls", "time", "share")
	for _, p := range totals {
		share := 0.0
		if sum > 0 {
			share = 100 * float64(p.Nanos) / float64(sum)
		}
		fmt.Fprintf(out, "  %-14s %10d %14v %6.1f%%\n", p.Phase, p.Calls, time.Duration(p.Nanos).Round(time.Microsecond), share)
	}
	compute, comm, other := res.Metrics.ComputeCommSplit()
	if sum > 0 {
		fmt.Fprintf(out, "compute/comm split: compute %.1f%%, comm %.1f%%, other %.1f%%\n",
			100*float64(compute)/float64(sum), 100*float64(comm)/float64(sum), 100*float64(other)/float64(sum))
	}
	var cs game.CacheStats
	cached := false
	for _, p := range res.Metrics.Phases {
		if p.Cache != nil {
			cs.Merge(*p.Cache)
			cached = true
		}
	}
	if cached {
		fmt.Fprintf(out, "payoff cache: %d hits, %d misses (%.1f%% hit rate), %d evictions, %d entries resident\n",
			cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Evictions, cs.Entries)
	}
}

// writeMetrics serialises the run's metric registry snapshot.
func writeMetrics(path, format string, res *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap := res.MetricsRegistry().Snapshot()
	if format == "prom" {
		return metrics.WritePrometheus(f, snap)
	}
	return metrics.WriteJSON(f, snap)
}

// writeCheckpoint atomically-ish writes a final snapshot, counters included
// so a later -resume continues the cumulative work totals (write then rename
// is unnecessary for this tool; a plain truncate-write keeps it simple).
func writeCheckpoint(path string, gen, seed uint64, memory int, res *sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	snap := &checkpoint.Snapshot{
		Generation: gen,
		Seed:       seed,
		Memory:     memory,
		Strategies: res.Final,
		Fitness:    res.FinalFitness,
		Counters: &checkpoint.RunCounters{
			GamesPlayed: res.Counters.GamesPlayed,
			PCEvents:    res.Counters.PCEvents,
			Adoptions:   res.Counters.Adoptions,
			Mutations:   res.Counters.Mutations,
		},
	}
	return checkpoint.Write(f, snap)
}
