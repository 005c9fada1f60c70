package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/server"
	"repro/internal/sim"
)

// serveCheckpointEvery is the daemon's snapshot cadence for the durable
// workload, set so every job writes checkpoints mid-run. A spec's own
// checkpoint_every cannot be used: JobSpec.Config rejects it (see
// README.md).
const serveCheckpointEvery = 40

// maxSSEReconnects bounds how often a client re-attaches to one job's event
// stream before it counts the job as failed.
const maxSSEReconnects = 100

// cachedSpec is bound by pair-cache hits: pure memory-2 strategies, every
// match replayed every generation, payoff cache on.
func cachedSpec(sz sizes, seed uint64) server.JobSpec {
	return server.JobSpec{Memory: 2, SSets: sz.cachedSSets, Generations: sz.serveGens,
		FullRecompute: true, PayoffCache: true, Seed: seed}
}

// exactSpec is bound by the Markov solver: noisy mixed memory-2 strategies
// scored by their exact infinite-game payoff.
func exactSpec(sz sizes, seed uint64) server.JobSpec {
	return server.JobSpec{Memory: 2, SSets: sz.exactSSets, Generations: sz.serveGens,
		Mixed: true, ExactPayoffs: true, ErrorRate: 0.01, Seed: seed}
}

// servePool holds the job specs clients submit, alternating cached (even
// index) and exact (odd index), with each spec's reference output from a
// direct sequential engine run.
type servePool struct {
	specs []server.JobSpec
	cfgs  []sim.Config
	refs  []*sim.Result
	outs  []outcome
}

func newServePool(e *env) (*servePool, error) {
	p := &servePool{}
	for i := 0; i < e.sz.pool; i++ {
		for _, spec := range []server.JobSpec{cachedSpec(e.sz, poolSeed(e.seed, 2*i)), exactSpec(e.sz, poolSeed(e.seed, 2*i+1))} {
			cfg, err := spec.Config()
			if err != nil {
				return nil, fmt.Errorf("job spec: %w", err)
			}
			end := e.tr.begin("sim.RunSequential", "reference", 0, "ref-"+strconv.Itoa(len(p.specs)))
			res, err := sim.RunSequential(cfg)
			end()
			if err != nil {
				return nil, fmt.Errorf("reference run: %w", err)
			}
			p.specs = append(p.specs, spec)
			p.cfgs = append(p.cfgs, cfg)
			p.refs = append(p.refs, res)
			p.outs = append(p.outs, outcomeOf(res))
		}
	}
	return p, nil
}

// daemon is an egdserve instance behind a real loopback listener.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startDaemon opens a durable server over dataDir and serves it on a
// loopback port. It returns once /healthz answers, that is once the store
// is open, the journal replayed, and the listener taking requests.
func startDaemon(dataDir string) (*daemon, error) {
	srv, err := server.New(server.Options{Workers: 2, DataDir: dataDir, CheckpointEvery: serveCheckpointEvery})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	resp, err := http.Get(d.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the listener and every connection, waits for the serving
// goroutine, then stops the job workers.
func (d *daemon) close() {
	d.hs.Close()
	<-d.done
	d.srv.Close()
	http.DefaultClient.CloseIdleConnections()
}

// jobRecord is one job's life as its client saw it.
type jobRecord struct {
	id        string
	spec      int
	submit    time.Time // POST sent
	accepted  time.Time // 202 received
	running   time.Time // running state event received
	settled   time.Time // terminal state event received
	fetch     time.Time // GET /result sent
	done      time.Time // /result received
	reconnect int
	estimated float64
	elapsed   float64
	err       error
}

func (r jobRecord) latency() time.Duration { return r.done.Sub(r.submit) }

// client is one closed-loop tenant: it submits a job, follows its event
// stream to the terminal state, fetches the result, and only then submits
// the next. Each client holds at most one connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) runJob(p *servePool, spec int, metrics bool) jobRecord {
	rec := jobRecord{spec: spec}
	rec.err = c.drive(p, &rec, metrics)
	return rec
}

func (c *client) drive(p *servePool, rec *jobRecord, metrics bool) error {
	body := p.specs[rec.spec]
	body.Metrics = metrics
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	rec.submit = time.Now()
	resp, err := c.hc.Post(c.base+"/api/v1/jobs", "application/json", bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var st struct {
		ID               string  `json:"id"`
		EstimatedSeconds float64 `json:"estimated_seconds"`
	}
	err = decodeBody(resp, http.StatusAccepted, &st)
	rec.accepted = time.Now()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	rec.id, rec.estimated = st.ID, st.EstimatedSeconds
	state, err := c.follow(rec)
	if err != nil {
		return fmt.Errorf("job %s events: %w", rec.id, err)
	}
	if state != string(server.StateDone) {
		return fmt.Errorf("job %s ended %s", rec.id, state)
	}
	rec.fetch = time.Now()
	resp, err = c.hc.Get(c.base + "/api/v1/jobs/" + rec.id + "/result")
	if err != nil {
		return fmt.Errorf("job %s result: %w", rec.id, err)
	}
	var got struct {
		outcome
		ElapsedSeconds float64 `json:"elapsed_seconds"`
	}
	err = decodeBody(resp, http.StatusOK, &got)
	rec.done = time.Now()
	if err != nil {
		return fmt.Errorf("job %s result: %w", rec.id, err)
	}
	rec.elapsed = got.ElapsedSeconds
	if err := matchReference(p.outs[rec.spec], got.outcome, 0); err != nil {
		return fmt.Errorf("job %s /result differs from a direct engine run of its spec: %w", rec.id, err)
	}
	return nil
}

func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// follow reads the job's Server-Sent Events until its terminal state event,
// reconnecting with Last-Event-ID whenever the server ends the stream
// early (it drops subscribers that fall behind). It returns the terminal
// state.
func (c *client) follow(rec *jobRecord) (string, error) {
	last := 0
	for {
		state, err := c.stream(rec, &last)
		if err != nil || state != "" {
			return state, err
		}
		if rec.reconnect == maxSSEReconnects {
			return "", fmt.Errorf("no terminal state after %d reconnects", rec.reconnect)
		}
		rec.reconnect++
	}
}

// stream reads one event-stream connection; it returns the terminal state
// if it saw one, "" if the stream ended first.
func (c *client) stream(rec *jobRecord, last *int) (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/v1/jobs/"+rec.id+"/events", nil)
	if err != nil {
		return "", err
	}
	if *last > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*last))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	var id int
	var kind, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id, _ = strconv.Atoi(line[4:])
		case strings.HasPrefix(line, "event: "):
			kind = line[7:]
		case strings.HasPrefix(line, "data: "):
			data = line[6:]
		case line == "":
			*last = id
			if kind != "state" {
				continue
			}
			var ev struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return "", fmt.Errorf("state event %q: %w", data, err)
			}
			switch server.State(ev.State) {
			case server.StateRunning:
				if rec.running.IsZero() {
					rec.running = time.Now()
				}
			case server.StateDone, server.StateFailed, server.StateCanceled:
				rec.settled = time.Now()
				// The server closes the stream right after the terminal
				// event; reading to the end lets the connection be reused.
				_, _ = io.Copy(io.Discard, resp.Body)
				return ev.State, nil
			}
		}
	}
	return "", sc.Err()
}

// serveWindow runs two closed-loop clients for the window and returns every
// job they finished and the time until the last one finished. Client c's
// k-th job alternates between the cached and the exact spec. In a traced
// window jobs ask for the engine's metrics and each job's spans are kept.
func serveWindow(e *env, d *daemon, p *servePool, window time.Duration, traced bool) ([]jobRecord, time.Duration) {
	const clients = 2
	start := time.Now()
	recs := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(d.base)
			defer cl.hc.CloseIdleConnections()
			for k := 0; k < 2 || time.Since(start) < window; k++ {
				spec := 2*((k/2)%e.sz.pool) + (k+c)%2
				recs[c] = append(recs[c], cl.runJob(p, spec, traced))
			}
		}(c)
	}
	wg.Wait()
	var all []jobRecord
	var last time.Time
	for c, rs := range recs {
		for _, r := range rs {
			all = append(all, r)
			if r.done.After(last) {
				last = r.done
			}
			if traced {
				traceJob(e.tr, c+1, r)
			}
		}
	}
	return all, last.Sub(start)
}

// traceJob records a job's submit, queue, run and result spans under one
// parent span, all carrying the job ID.
func traceJob(t *tracer, lane int, r jobRecord) {
	if t == nil || r.done.IsZero() {
		return
	}
	parent := t.record("job", "server", lane, r.id, 0, r.submit, r.done)
	t.record("submit", "server", lane, r.id, parent, r.submit, r.accepted)
	if !r.running.IsZero() {
		t.record("queue", "server", lane, r.id, parent, r.accepted, r.running)
		t.record("run", "server", lane, r.id, parent, r.running, r.settled)
	}
	t.record("result", "server", lane, r.id, parent, r.fetch, r.done)
}

func runServeWorkload(e *env) error {
	p, err := newServePool(e)
	if err != nil {
		return err
	}
	ds := make([]float64, e.sz.setupReps)
	for i := range ds {
		dir := filepath.Join(e.dir, "setup-"+strconv.Itoa(i))
		end := e.tr.begin("setup", "setup", 0, "")
		t0 := time.Now()
		d, err := startDaemon(dir)
		ds[i] = float64(time.Since(t0))
		end()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d.close()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	dataDir := filepath.Join(e.dir, "data")
	d, err := startDaemon(dataDir)
	if err != nil {
		return err
	}
	defer d.close()

	// Two unmeasured jobs per client warm up the daemon and the clients.
	warm, _ := serveWindow(e, d, p, 0, false)
	for _, r := range warm {
		e.rep.check(r.err)
	}
	measure := func(window time.Duration, traced bool) ([]jobRecord, float64) {
		alloc := startAlloc()
		recs, elapsed := serveWindow(e, d, p, window, traced)
		mb := alloc.mbPer(len(recs))
		var ok []jobRecord
		var gens int
		for _, r := range recs {
			e.rep.check(r.err)
			if r.err == nil {
				ok = append(ok, r)
				gens += p.specs[r.spec].Generations
			}
		}
		if len(ok) == 0 {
			return nil, 0
		}
		lat := make([]float64, len(ok))
		for i, r := range ok {
			lat[i] = r.latency().Seconds()
		}
		reportThroughput(e, len(ok), gens, elapsed, lat, mb)
		return ok, float64(len(ok)) / elapsed.Seconds()
	}
	if !e.traced {
		ok, _ := measure(e.window, false)
		if len(ok) == 0 {
			return errors.New("no job succeeded")
		}
		e.rep.set("setup_s", time.Duration(median(ds)).Seconds())
		return nil
	}
	plain, plainRate := measure(e.window/2, false)
	traced, tracedRate := measure(e.window/2, true)
	if len(plain) == 0 || len(traced) == 0 {
		return errors.New("no job succeeded")
	}
	e.rep.set("bench.trace_overhead_frac", 1-tracedRate/plainRate)
	if err := serveLayers(e, d, traced); err != nil {
		return err
	}
	return serveReplays(e, p, dataDir)
}

// serveLayers derives the server layer metrics from the clients' view of
// the traced jobs, and the cache counters from the daemon's /metrics (only
// traced jobs ask for metrics, so the counters cover exactly them).
func serveLayers(e *env, d *daemon, recs []jobRecord) error {
	var submit, queue, result, overhead, cached, exact []float64
	reconnects := 0
	for _, r := range recs {
		submit = append(submit, ms(r.accepted.Sub(r.submit)))
		queue = append(queue, ms(r.running.Sub(r.accepted)))
		result = append(result, ms(r.done.Sub(r.fetch)))
		overhead = append(overhead, ms(r.latency())-r.elapsed*1e3)
		reconnects += r.reconnect
		if r.spec%2 == 0 {
			cached = append(cached, r.elapsed/r.estimated)
		} else {
			exact = append(exact, r.elapsed/r.estimated)
		}
	}
	e.rep.set("server.submit_ms", median(submit))
	e.rep.set("server.queue_wait_ms", median(queue))
	e.rep.set("server.result_ms", median(result))
	e.rep.set("server.overhead_ms", median(overhead))
	e.rep.set("server.sse_reconnects_per_job", float64(reconnects)/float64(len(recs)))
	e.rep.set("server.cost_ratio_cached", median(cached))
	e.rep.set("server.cost_ratio_exact", median(exact))

	m, err := scrapeMetrics(d.base)
	if err != nil {
		return err
	}
	hits, misses := m["egd_payoff_cache_hits_total"], m["egd_payoff_cache_misses_total"]
	e.rep.set("game.cache_hit_rate", safeDiv(hits, hits+misses))
	e.rep.set("game.cache_evictions", m["egd_payoff_cache_evictions_total"])
	e.rep.set("game.matches_evaluated", m["egd_games_played_total"])
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scrapeMetrics reads the daemon's Prometheus text and sums every series of
// each metric family across its labels.
func scrapeMetrics(base string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// serveReplays times the cache, fingerprint, solver and durability layers
// on the workload's own strategies: a cached job's final population for the
// pair cache and fingerprints, an exact job's for the Markov solver and the
// checkpoint snapshot.
func serveReplays(e *env, p *servePool, dataDir string) error {
	cachedPop, exactPop := p.refs[0].Final, p.refs[1].Final
	hit, err := replayCacheHit(e, cachedPop, p.cfgs[0].Rules, false)
	if err != nil {
		return err
	}
	e.rep.set("game.cache_hit_ns", hit)
	e.rep.set("strategy.fingerprint_ns", replayFingerprint(e, cachedPop))
	markov, err := replayMarkov(e, exactPop, p.cfgs[1].Rules)
	if err != nil {
		return err
	}
	e.rep.set("analysis.markov_pair_ns", markov)

	cfg, res := p.cfgs[1], p.refs[1]
	snap := &checkpoint.Snapshot{
		Generation: uint64(cfg.Generations),
		Seed:       cfg.Seed,
		Memory:     cfg.Memory,
		Strategies: res.Final,
		Counters: &checkpoint.RunCounters{GamesPlayed: res.Counters.GamesPlayed, PCEvents: res.Counters.PCEvents,
			Adoptions: res.Counters.Adoptions, Mutations: res.Counters.Mutations},
		MeanFitness: seriesOf(res.MeanFitness.Len(), res.MeanFitness.At),
		Cooperation: seriesOf(res.Cooperation.Len(), res.Cooperation.At),
	}
	wms, size, err := replayCheckpoint(e, dataDir, snap)
	if err != nil {
		return fmt.Errorf("checkpoint replay: %w", err)
	}
	e.rep.set("checkpoint.write_ms", wms)
	e.rep.set("checkpoint.bytes", size)
	fs, err := replayFsync(e, dataDir)
	if err != nil {
		return fmt.Errorf("fsync replay: %w", err)
	}
	e.rep.set("server.fsync_ms", fs)
	return nil
}

func seriesOf(n int, at func(int) (int, float64)) []checkpoint.SeriesPoint {
	out := make([]checkpoint.SeriesPoint, n)
	for i := range out {
		g, v := at(i)
		out[i] = checkpoint.SeriesPoint{Generation: uint64(g), Value: v}
	}
	return out
}
