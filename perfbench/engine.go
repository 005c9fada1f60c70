package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/strategy"
)

// table6Ranks is the Nature rank plus two workers.
const table6Ranks = 3

// table6Config is Table VI's timing mode: pure memory-6 strategies, every
// match replayed every generation, PC events at the scaling runs' 1%, no
// payoff cache. A 25-generation run samples the series every generation,
// the engine's default stride for that length.
func table6Config(sz sizes, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(6, sz.table6SSets)
	cfg.Generations = sz.table6Gens
	cfg.PCRate = 0.01
	cfg.FullRecompute = true
	cfg.Seed = seed
	return cfg
}

// netLinger bounds the post-run drain of each networked rank. A worker rank
// always waits the whole linger (see README.md), so the transport's 5 s
// default would dominate every run; 50 ms keeps teardown a minor share.
const netLinger = 50 * time.Millisecond

// runUnix executes one simulation with every rank on its own unix-socket
// transport in this process, as egdrun's worker processes would be, and
// returns the Nature rank's result once every rank has exited.
func runUnix(e *env, cfg sim.Config, ranks int, job string) (*sim.Result, error) {
	trs, err := newTransports(e.dir, ranks, job)
	if err != nil {
		return nil, err
	}
	results := make([]*sim.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r, tr := range trs {
		wg.Add(1)
		go func(r int, tr *mpi.NetTransport) {
			defer wg.Done()
			results[r], errs[r] = sim.RunWorker(cfg, tr)
		}(r, tr)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results[0], nil
}

// newTransports creates one unstarted unix-socket transport per rank, as
// the egdrun launcher gives each worker process.
func newTransports(dir string, ranks int, job string) ([]*mpi.NetTransport, error) {
	addrs := make([]string, ranks)
	for i := range addrs {
		addrs[i] = filepath.Join(dir, fmt.Sprintf("r%d.sock", i))
	}
	trs := make([]*mpi.NetTransport, ranks)
	for r := range trs {
		tr, err := mpi.NewNetTransport(mpi.NetConfig{
			Self: r, Size: ranks, Network: "unix", Addrs: addrs, Job: job, Linger: netLinger,
		})
		if err != nil {
			return nil, err
		}
		trs[r] = tr
	}
	return trs, nil
}

// runMesh wires a unix-socket world hosted in this process and runs body on
// every rank.
func runMesh(dir string, ranks int, job string, body func(c *mpi.Comm) error) error {
	trs, err := newTransports(dir, ranks, job)
	if err != nil {
		return err
	}
	worlds := make([]*mpi.World, ranks)
	for r, tr := range trs {
		worlds[r] = mpi.NewNetWorld(tr)
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r, tr := range trs {
		wg.Add(1)
		go func(r int, tr *mpi.NetTransport) {
			defer wg.Done()
			errs[r] = tr.Start()
		}(r, tr)
	}
	wg.Wait()
	startErr := errors.Join(errs...)
	if startErr != nil {
		// Run an empty body anyway: RunLocal is what tears a mesh down.
		body = func(*mpi.Comm) error { return nil }
	}
	for r := range worlds {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = worlds[r].RunLocal(body)
		}(r)
	}
	wg.Wait()
	return errors.Join(startErr, errors.Join(errs...))
}

// table6Setup measures the time until the program can take work: a
// zero-generation run (world, populations, final gather), the median of
// several.
func table6Setup(e *env, cfg sim.Config) (time.Duration, error) {
	cfg.Generations = 0
	ds := make([]float64, e.sz.setupReps)
	for i := range ds {
		end := e.tr.begin("setup", "setup", 0, "")
		t0 := time.Now()
		_, err := sim.RunParallel(cfg, table6Ranks)
		ds[i] = float64(time.Since(t0))
		end()
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
	}
	return time.Duration(median(ds)), nil
}

// jobPool is the small set of run configurations a benchmark run cycles
// through, with the sequential engine's reference output for each and the
// digest of the first parallel output, against which every repeat must
// match exactly.
type jobPool struct {
	cfgs    []sim.Config
	refs    []outcome
	seen    []string
	seqTime time.Duration
	seqGens int
}

func newJobPool(e *env) (*jobPool, error) {
	p := &jobPool{}
	for i := 0; i < e.sz.pool; i++ {
		cfg := table6Config(e.sz, poolSeed(e.seed, i))
		// Validate pins the defaults, SampleStride among them.
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		end := e.tr.begin("sim.RunSequential", "reference", 0, "ref-"+strconv.Itoa(i))
		t0 := time.Now()
		res, err := sim.RunSequential(cfg)
		p.seqTime += time.Since(t0)
		end()
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		p.seqGens += cfg.Generations
		p.cfgs = append(p.cfgs, cfg)
		p.refs = append(p.refs, outcomeOf(res))
		p.seen = append(p.seen, "")
	}
	return p, nil
}

// verify applies the correctness gate to the result of pool config i.
func (p *jobPool) verify(i int, res *sim.Result) error {
	got := outcomeOf(res)
	if err := matchReference(p.refs[i], got, meanFitnessTol); err != nil {
		return fmt.Errorf("parallel run of pool config %d differs from the sequential engine: %w", i, err)
	}
	d := got.digest()
	if p.seen[i] == "" {
		p.seen[i] = d
	} else if d != p.seen[i] {
		return fmt.Errorf("repeat of pool config %d produced a different digest", i)
	}
	return nil
}

// jobStats is what a measured window of engine runs yields.
type jobStats struct {
	runs int
	// intervals times every sampling interval (see measure).
	intervals []time.Duration
	gens      int
	elapsed   time.Duration
	allocMB   float64
	results   []*sim.Result // kept only when collecting engine metrics
}

func (s jobStats) gensPerSec() float64 { return float64(s.gens) / s.elapsed.Seconds() }

// measure runs the pool's configurations back to back, in turn, for the
// window and checks every output. A traced window records a span per run,
// and the runs collect the engine's own phase and communication accounting
// and keep their results.
//
// The job a caller waits for is one sampling interval: the generations up
// to the next sample of the run's series, the progress a run reports. At a
// sampled generation every rank joins the fitness reduction, so the Nature
// rank's Observer call there marks the interval's completion. An interval is
// timed from the previous sample. A run's first sample (generation 0) ends
// its set-up and warm-up, which setup_s and the throughput cover, so it
// starts the clock without counting as a job.
func measure(e *env, p *jobPool, window time.Duration, traced bool) jobStats {
	var st jobStats
	var tr *tracer
	if traced {
		tr = e.tr
	}
	var last time.Time // the previous sample
	var stride int
	observe := sim.ObserverFunc(func(gen int, _ *sim.Population, _ sim.Events) {
		if gen%stride != 0 {
			return
		}
		now := time.Now()
		if gen > 0 {
			st.intervals = append(st.intervals, now.Sub(last))
		}
		last = now
	})
	alloc := startAlloc()
	start := time.Now()
	for n := 0; n < len(p.cfgs) || time.Since(start) < window; n++ {
		i := n % len(p.cfgs)
		cfg := p.cfgs[i]
		cfg.Metrics = traced
		cfg.Observer = observe
		stride = cfg.SampleStride
		job := fmt.Sprintf("run-%d", n)
		end := tr.begin("engine.run", "sim", 1, job)
		res, err := sim.RunParallel(cfg, table6Ranks)
		end()
		st.runs++
		if err == nil {
			err = p.verify(i, res)
		}
		e.rep.check(err)
		if err != nil {
			continue
		}
		st.gens += cfg.Generations
		if traced {
			st.results = append(st.results, res)
		}
	}
	st.elapsed = time.Since(start)
	st.allocMB = alloc.mbPer(len(st.intervals))
	return st
}

func runTable6(e *env) error {
	p, err := newJobPool(e)
	if err != nil {
		return err
	}
	setup, err := table6Setup(e, p.cfgs[0])
	if err != nil {
		return err
	}
	// A window of zero makes one unmeasured run per pool entry: it warms up
	// and checks every configuration once before timing starts.
	measure(e, p, 0, false)
	if !e.traced {
		st := measure(e, p, e.window, false)
		if len(st.intervals) == 0 {
			return errors.New("no sampling interval completed")
		}
		e.rep.set("setup_s", setup.Seconds())
		logf("%d runs", st.runs)
		reportThroughput(e, len(st.intervals), st.gens, st.elapsed, seconds(st.intervals), st.allocMB)
		return nil
	}
	plain := measure(e, p, e.window/2, false)
	traced := measure(e, p, e.window/2, true)
	e.rep.set("bench.trace_overhead_frac", 1-traced.gensPerSec()/plain.gensPerSec())
	if len(traced.results) == 0 {
		return errors.New("no traced run succeeded")
	}
	seqPerGen := p.seqTime.Seconds() / float64(p.seqGens)
	engineLayers(e, traced, seqPerGen*plain.gensPerSec())
	if err := wireReplay(e, p); err != nil {
		return err
	}
	return replayKernels(e, traced.results[len(traced.results)-1])
}

// reportThroughput sets the end-to-end metrics a measured window yields.
func reportThroughput(e *env, jobs, gens int, elapsed time.Duration, latencies []float64, allocMB float64) {
	e.rep.set("gens_per_s", float64(gens)/elapsed.Seconds())
	e.rep.set("jobs_per_s", float64(jobs)/elapsed.Seconds())
	e.rep.set("job_latency_p50_s", quantile(latencies, 0.5))
	e.rep.set("job_latency_p99_s", quantile(latencies, 0.99))
	e.rep.set("alloc_mb", allocMB)
	logf("%d jobs, %d generations in %.2fs; latency p50 %.4fs p99 %.4fs over %d samples",
		jobs, gens, elapsed.Seconds(), quantile(latencies, 0.5), quantile(latencies, 0.99), len(latencies))
}

// engineLayers derives the sim and mpi layer metrics from the engine's own
// accounting (Result.Metrics) of the traced jobs. speedup is the sequential
// engine's time per generation over the parallel engine's.
func engineLayers(e *env, st jobStats, speedup float64) {
	workers := table6Ranks - 1
	kgen := float64(st.gens) / 1000
	play := make([]float64, table6Ranks)
	wait := make([]float64, table6Ranks)
	var untimed, compute, comm float64
	var msgs, bytes, bcastNs, bcastCalls, reduceNs, reduceCalls float64
	for _, res := range st.results {
		m := res.Metrics
		for _, rs := range m.Phases {
			for _, ph := range rs.Phases {
				s := float64(ph.Nanos) / 1e9
				switch {
				case rs.Rank == 0:
					untimed -= s
				case ph.Phase == sim.PhaseGamePlay:
					play[rs.Rank] += s
				case ph.Phase == sim.PhaseBroadcast || ph.Phase == sim.PhaseReduce || ph.Phase == sim.PhaseFitnessComm:
					wait[rs.Rank] += s
				}
			}
		}
		untimed += res.Elapsed.Seconds()
		cp, cm, _ := m.ComputeCommSplit()
		compute += cp.Seconds()
		comm += cm.Seconds()
		for _, cs := range m.Comm {
			msgs += float64(cs.SentMsgs)
			bytes += float64(cs.SentBytes)
			for _, co := range cs.Collectives {
				switch co.Op {
				case "bcast":
					bcastNs += float64(co.Nanos)
					bcastCalls += float64(co.Calls)
				case "reduce":
					reduceNs += float64(co.Nanos)
					reduceCalls += float64(co.Calls)
				}
			}
		}
	}
	maxPlay, sumPlay, maxWait := 0.0, 0.0, 0.0
	for r := 1; r < table6Ranks; r++ {
		maxPlay = max(maxPlay, play[r])
		sumPlay += play[r]
		maxWait = max(maxWait, wait[r])
	}
	gens := float64(st.gens)
	e.rep.set("sim.game_play_s", maxPlay/kgen)
	e.rep.set("sim.game_play_imbalance", safeDiv(maxPlay, sumPlay/float64(workers)))
	e.rep.set("sim.parallel_efficiency", speedup/float64(workers))
	e.rep.set("sim.worker_wait_s", maxWait/kgen)
	e.rep.set("sim.nature_untimed_s", untimed/kgen)
	e.rep.set("sim.comm_share", safeDiv(comm, compute+comm))
	e.rep.set("mpi.msgs_per_gen", msgs/gens)
	e.rep.set("mpi.bytes_per_gen", bytes/gens)
	e.rep.set("mpi.bcast_us", safeDiv(bcastNs, bcastCalls)/1e3)
	e.rep.set("mpi.reduce_us", safeDiv(reduceNs, reduceCalls)/1e3)
	var games uint64
	for _, res := range st.results {
		games += res.Counters.GamesPlayed
	}
	e.rep.set("game.matches_evaluated", float64(games))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wireReplay reruns every pool configuration with each rank on its own
// unix-socket transport, checks the output like any other run, and reports
// the wire traffic the Nature rank's transport saw per generation.
func wireReplay(e *env, p *jobPool) error {
	var gens, frames, bytes, resends, decodeErrs float64
	for i, cfg := range p.cfgs {
		cfg.Metrics = true
		job := "wire-" + strconv.Itoa(i)
		end := e.tr.begin("replay sim.RunWorker over unix sockets", "replay", 0, job)
		res, err := runUnix(e, cfg, table6Ranks, job)
		end()
		if err == nil {
			err = p.verify(i, res)
		}
		e.rep.check(err)
		if err != nil {
			return fmt.Errorf("unix-socket replay: %w", err)
		}
		ts := res.Metrics.Transport
		gens += float64(cfg.Generations)
		frames += float64(ts.FramesSent + ts.FramesRecv)
		bytes += float64(ts.BytesSent + ts.BytesRecv)
		resends += float64(ts.Resends)
		decodeErrs += float64(ts.DecodeErrs)
	}
	e.rep.set("mpi.wire_frames_per_gen", frames/gens)
	e.rep.set("mpi.wire_bytes_per_gen", bytes/gens)
	e.rep.set("mpi.wire_resends", resends)
	e.rep.set("mpi.wire_decode_errs", decodeErrs)
	return nil
}

// replayKernels times both match evaluators and the runtime's
// point-to-point path on inputs taken from a traced run: its final
// population's pairs, and one of its strategies as the message payload.
func replayKernels(e *env, res *sim.Result) error {
	rules := table6Config(e.sz, e.seed).Rules
	pure := make([]*strategy.Pure, len(res.Final))
	for i, s := range res.Final {
		pure[i] = s.(*strategy.Pure)
	}
	e.rep.set("game.play_pure_ns", replayPlayPure(e, pure, rules))
	e.rep.set("game.play_ns", replayPlay(e, res.Final, rules))
	payload := updateMsg{Mutated: true, Mutant: 1, MutantStrategy: res.Final[0]}
	inproc, err := pingpongInproc(e, payload)
	if err != nil {
		return fmt.Errorf("in-process ping-pong: %w", err)
	}
	unix, err := pingpongUnix(e, payload)
	if err != nil {
		return fmt.Errorf("unix ping-pong: %w", err)
	}
	e.rep.set("mpi.pingpong_inproc_us", inproc)
	e.rep.set("mpi.pingpong_unix_us", unix)
	return nil
}
