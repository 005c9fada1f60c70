package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// State is a job's lifecycle position. Transitions:
//
//	queued → running → done | failed | canceled
//	running → paused → queued (resume) | canceled
//	queued → canceled
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StatePaused   State = "paused"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Control-request values for Job.ctrl.
const (
	ctrlRun int32 = iota
	ctrlPause
	ctrlCancel
	// ctrlDrain parks a job for shutdown: running segments stop at the next
	// generation boundary with a durable snapshot and go back to queued, so
	// the next boot's recovery re-queues them.
	ctrlDrain
)

var (
	errPauseRequested  = errors.New("server: pause requested")
	errCancelRequested = errors.New("server: cancel requested")
	errDrainRequested  = errors.New("server: drain requested")
)

// Job is one simulation run owned by the daemon: the tenant's spec, the
// normalised engine configuration, the live control/progress state, and —
// across a pause — the checkpoint the next segment resumes from.
type Job struct {
	ID     string
	Tenant string
	Spec   JobSpec
	// cfg is the validated, default-normalised configuration. SampleStride
	// is pinned here at submission, so resumed segments keep the original
	// sampling schedule (bit-identical series across pause/resume).
	cfg sim.Config
	// EstimatedSeconds is the admission controller's modelled cost.
	EstimatedSeconds float64

	hub *hub
	// sink holds the job's resume snapshots: an in-memory sink by default,
	// a durableSink (on-disk, crash-safe, series-carrying) under -data-dir.
	sink sim.CheckpointSink
	ctrl atomic.Int32

	mu     sync.Mutex
	state  State
	gen    int // last generation boundary reached
	errMsg string
	result *sim.Result
	// wire is the finished run's serialisable result, built once at settle;
	// it is what /result serves and what the journal persists, so a
	// recovered daemon answers for done jobs without re-running them.
	wire *jobResult
	snap *checkpoint.Snapshot // resume point while paused (or recovered)
	// priorFitness/priorCoop accumulate the series sampled by segments that
	// ended in a pause; the final segment's series appended to them equals an
	// uninterrupted run's series exactly (same stride, disjoint generations).
	priorFitness []samplePoint
	priorCoop    []samplePoint
}

// jobStatus is the wire form of a job's state.
type jobStatus struct {
	ID               string  `json:"id"`
	Tenant           string  `json:"tenant"`
	State            State   `json:"state"`
	Generation       int     `json:"generation"`
	Generations      int     `json:"generations"`
	EstimatedSeconds float64 `json:"estimated_seconds"`
	Error            string  `json:"error,omitempty"`
}

func (j *Job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:               j.ID,
		Tenant:           j.Tenant,
		State:            j.state,
		Generation:       j.gen,
		Generations:      j.cfg.Generations,
		EstimatedSeconds: j.EstimatedSeconds,
		Error:            j.errMsg,
	}
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
	j.hub.publish("state", map[string]any{"id": j.ID, "state": s})
}

func (j *Job) setGen(gen int) {
	j.mu.Lock()
	j.gen = gen
	j.mu.Unlock()
}

func (j *Job) resumePoint() *checkpoint.Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap
}

// sampleEvent is the SSE payload for a sampled generation. Mean fitness is
// omitted because the observer's population carries strategies only;
// cooperation derives from strategies alone and is valid on both engines.
type sampleEvent struct {
	Generation  int     `json:"generation"`
	Cooperation float64 `json:"cooperation"`
	Adopted     bool    `json:"adopted,omitempty"`
	Mutated     bool    `json:"mutated,omitempty"`
}

// Manager owns the job table, the bounded queue, and the worker pool — and,
// in durable mode, the write-ahead journal and checkpoint files that let a
// restarted daemon carry on where the previous process stopped.
type Manager struct {
	queue           chan *Job
	reg             *metrics.Registry
	quotas          *quotaTable
	cost            CostModel
	workers         int
	maxJobSeconds   float64
	maxOutstanding  float64
	store           *store // nil in ephemeral (in-memory) mode
	epoch           int    // journal-persisted boot counter; 0 when ephemeral
	checkpointEvery int    // durable snapshot cadence for jobs without their own
	logf            func(format string, args ...any)

	mu          sync.Mutex
	jobs        map[string]*Job
	nextID      int
	outstanding float64 // modelled seconds of non-terminal jobs
	closed      bool

	wg sync.WaitGroup
}

func newManager(opts Options, reg *metrics.Registry) (*Manager, error) {
	m := &Manager{
		reg:             reg,
		quotas:          newQuotaTable(opts.Tenant, opts.Now),
		cost:            opts.Cost.normalised(),
		workers:         opts.workers(),
		maxJobSeconds:   opts.MaxJobSeconds,
		maxOutstanding:  opts.MaxOutstandingSeconds,
		checkpointEvery: opts.checkpointEvery(),
		logf:            opts.logf(),
		jobs:            make(map[string]*Job),
	}
	queueCap := opts.queueDepth()
	var pending []*Job
	if opts.DataDir != "" {
		st, js, err := openStore(opts.DataDir)
		if err != nil {
			return nil, err
		}
		m.store = st
		m.epoch = js.epoch + 1
		pending = m.recoverJobs(js)
		// Recovered jobs must all fit the queue regardless of the
		// configured depth: they were admitted by the previous process.
		if len(pending) > queueCap {
			queueCap = len(pending)
		}
	}
	m.queue = make(chan *Job, queueCap)
	for _, job := range pending {
		m.queue <- job
	}
	if m.store != nil {
		// Boot compaction: rewrite the journal as the recovered state under
		// the new epoch, dropping the previous process's transition history
		// (and its clean marker — the journal is "dirty" until we shut down).
		if err := m.store.compact(m.snapshotRecords()); err != nil {
			m.store.close()
			return nil, err
		}
	}
	for i := 0; i < m.workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Close stops the pool: no new submissions are accepted, running jobs are
// cancelled, and Close returns once every worker has drained. In durable
// mode every job settles terminally, so the journal gets a clean marker.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m.jobs[id].ctrl.Store(ctrlCancel)
	}
	close(m.queue)
	m.mu.Unlock()
	m.wg.Wait()
	m.markCleanAndClose()
}

// Drain parks the service for restart: submissions stop, queued jobs stay
// queued, running jobs stop at the next generation boundary with a durable
// snapshot and return to queued — all journaled, so the next boot re-queues
// them and finishes each trajectory bit-identically. Once every worker is
// idle the journal gets its clean-shutdown marker. If workers do not settle
// within timeout, Drain returns an error and writes no marker; the journal
// then still recovers correctly, it just reports an unclean shutdown.
func (m *Manager) Drain(timeout time.Duration) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		// Only park jobs with no competing request: an in-flight pause or
		// cancel still wins, and its outcome is journaled as usual.
		m.jobs[id].ctrl.CompareAndSwap(ctrlRun, ctrlDrain)
	}
	close(m.queue)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		return fmt.Errorf("server: drain timed out after %s; journal left unclean (recovery will resume interrupted jobs)", timeout)
	}
	// End every open event stream so the HTTP server can finish its own
	// shutdown; parked jobs' timelines stay readable for late replays.
	m.mu.Lock()
	ids = ids[:0]
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		m.jobs[id].hub.close()
	}
	m.mu.Unlock()
	m.markCleanAndClose()
	return nil
}

// markCleanAndClose finalises the journal after the pool has drained.
func (m *Manager) markCleanAndClose() {
	if m.store == nil {
		return
	}
	if err := m.store.append(journalRecord{Kind: recClean}); err != nil {
		m.logf("egdserve: journal clean marker: %v", err)
	}
	if err := m.store.close(); err != nil {
		m.logf("egdserve: closing journal: %v", err)
	}
}

func (m *Manager) get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	return job, ok
}

// list returns all job statuses sorted by ID (submission order: IDs are
// zero-padded sequence numbers).
func (m *Manager) list() []jobStatus {
	m.mu.Lock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	jobs := make([]*Job, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]jobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// drainSeconds estimates how long the current backlog needs to clear: the
// outstanding modelled work divided across the pool, clamped to [1s, 600s]
// for a usable Retry-After.
func (m *Manager) drainSeconds() int {
	s := int(m.outstanding / float64(m.workers))
	if s < 1 {
		s = 1
	}
	if s > 600 {
		s = 600
	}
	return s
}

// Submit validates, prices, and admits a job, returning it in StateQueued.
// Errors are *specError (malformed), *admissionError (over budget), or
// *quotaError (tenant limits); the HTTP layer maps each to its status.
func (m *Manager) Submit(tenant string, spec JobSpec) (*Job, error) {
	cfg, err := spec.Config()
	if err != nil {
		m.reject("invalid_spec")
		return nil, &specError{Detail: err.Error()}
	}
	est := m.cost.EstimateSeconds(cfg)
	if m.maxJobSeconds > 0 && est > m.maxJobSeconds {
		m.reject("job_over_budget")
		return nil, &admissionError{
			Status:          422,
			Reason:          "job_over_budget",
			Detail:          fmt.Sprintf("modelled cost %.3g s exceeds the per-job ceiling %.3g s; shrink the job or split it", est, m.maxJobSeconds),
			ModelledSeconds: est,
			BudgetSeconds:   m.maxJobSeconds,
		}
	}
	if err := m.quotas.admit(tenant); err != nil {
		var qe *quotaError
		if errors.As(err, &qe) {
			m.reject(qe.Reason)
		}
		return nil, err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.quotas.release(tenant)
		return nil, &specError{Detail: "server shutting down"}
	}
	if m.maxOutstanding > 0 && m.outstanding+est > m.maxOutstanding {
		retry := m.drainSeconds()
		m.mu.Unlock()
		m.quotas.release(tenant)
		m.reject("capacity")
		return nil, &admissionError{
			Status:            429,
			Reason:            "capacity",
			Detail:            fmt.Sprintf("modelled cost %.3g s does not fit the outstanding-work budget %.3g s", est, m.maxOutstanding),
			ModelledSeconds:   est,
			BudgetSeconds:     m.maxOutstanding,
			RetryAfterSeconds: retry,
		}
	}
	m.nextID++
	// IDs are epoch-counter pairs: the epoch is a journal-persisted boot
	// counter, so IDs stay unique and lexicographically submission-ordered
	// across daemon restarts (epoch 0 is the ephemeral, storeless mode).
	job := &Job{
		ID:               fmt.Sprintf("j-%04d-%06d", m.epoch, m.nextID),
		Tenant:           tenant,
		Spec:             spec,
		cfg:              cfg,
		EstimatedSeconds: est,
		hub:              newHub(),
		state:            StateQueued,
	}
	job.sink = m.newSink(job)
	m.jobs[job.ID] = job
	m.outstanding += est
	m.mu.Unlock()

	// Journal the admission before acknowledging it: once the tenant sees
	// 202, the job survives a crash.
	if m.store != nil {
		if err := m.store.append(journalRecord{Kind: recSubmit, Job: job.ID, Tenant: job.Tenant, Spec: &spec, Est: est}); err != nil {
			m.reg.Counter("egd_server_journal_errors_total").Inc()
			m.logf("egdserve: journal submit for job %s: %v", job.ID, err)
		}
	}
	m.persistState(job)

	if err := m.enqueue(job); err != nil {
		m.settle(job, StateCanceled, nil, "")
		return nil, err
	}
	m.reg.Counter("egd_server_jobs_submitted_total").Inc()
	return job, nil
}

// newSink selects a job's checkpoint sink: durable on-disk snapshots when a
// store is configured, in-memory otherwise.
func (m *Manager) newSink(job *Job) sim.CheckpointSink {
	if m.store == nil {
		return sim.NewMemorySink()
	}
	return newDurableSink(job, m.store.checkpointPath(job.ID))
}

// enqueue places a queued job on the worker queue without blocking; a full
// queue is a capacity rejection with a drain-time Retry-After. The send
// happens under the manager lock so it can never race the queue close in
// Close/Drain (which also hold the lock).
func (m *Manager) enqueue(job *Job) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return &specError{Detail: "server shutting down"}
	}
	select {
	case m.queue <- job:
		m.mu.Unlock()
		m.reg.Gauge("egd_server_queue_depth").Set(int64(len(m.queue)))
		return nil
	default:
		retry := m.drainSeconds()
		m.mu.Unlock()
		m.reject("queue_full")
		return &admissionError{
			Status:            429,
			Reason:            "queue_full",
			Detail:            fmt.Sprintf("job queue is full (%d entries)", cap(m.queue)),
			ModelledSeconds:   job.EstimatedSeconds,
			RetryAfterSeconds: retry,
		}
	}
}

func (m *Manager) reject(reason string) {
	m.reg.Counter(metrics.Name("egd_server_jobs_rejected_total", "reason", reason)).Inc()
}

// Pause asks a queued or running job to stop at the next generation
// boundary and persist its resume snapshot.
func (m *Manager) Pause(job *Job) error {
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.state != StateRunning && job.state != StateQueued {
		return &stateError{Detail: fmt.Sprintf("job %s is %s; only queued or running jobs pause", job.ID, job.state)}
	}
	job.ctrl.Store(ctrlPause)
	return nil
}

// Resume re-queues a paused job; its next segment starts from the pause
// snapshot.
func (m *Manager) Resume(job *Job) error {
	job.mu.Lock()
	if job.state != StatePaused {
		job.mu.Unlock()
		return &stateError{Detail: fmt.Sprintf("job %s is %s; only paused jobs resume", job.ID, job.state)}
	}
	job.state = StateQueued
	job.ctrl.Store(ctrlRun)
	job.mu.Unlock()
	job.hub.publish("state", map[string]any{"id": job.ID, "state": StateQueued})
	m.persistState(job)
	if err := m.enqueue(job); err != nil {
		job.mu.Lock()
		job.state = StatePaused
		job.mu.Unlock()
		m.persistState(job)
		return err
	}
	return nil
}

// Cancel terminates a job: running jobs stop at the next generation
// boundary; queued and paused jobs are cancelled immediately.
func (m *Manager) Cancel(job *Job) error {
	job.mu.Lock()
	state := job.state
	job.mu.Unlock()
	switch state {
	case StateRunning, StateQueued:
		// A queued job's worker sees the flag at dequeue and settles it.
		job.ctrl.Store(ctrlCancel)
		return nil
	case StatePaused:
		m.settle(job, StateCanceled, nil, "")
		return nil
	default:
		return &stateError{Detail: fmt.Sprintf("job %s is already %s", job.ID, state)}
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.reg.Gauge("egd_server_queue_depth").Set(int64(len(m.queue)))
		m.runJob(job)
	}
}

// runJob executes one segment of a job: from its spec configuration, or
// from the pause snapshot when resuming. It ends in done/failed/canceled,
// or in paused with a fresh resume snapshot.
func (m *Manager) runJob(job *Job) {
	switch job.ctrl.Load() {
	case ctrlCancel:
		m.settle(job, StateCanceled, nil, "")
		return
	case ctrlDrain:
		// Draining: the job stays queued (already journaled as such); the
		// next boot's recovery re-queues it.
		return
	}
	job.setState(StateRunning)
	m.persistState(job)
	m.reg.Gauge("egd_server_jobs_running").Add(1)
	defer m.reg.Gauge("egd_server_jobs_running").Add(-1)

	cfg := job.cfg
	if snap := job.resumePoint(); snap != nil {
		resumed, err := cfg.Resume(snap)
		if err != nil {
			m.settle(job, StateFailed, nil, err.Error())
			return
		}
		cfg = resumed
	}
	cfg.CheckpointSink = job.sink
	if m.store != nil {
		// Durable mode: snapshots carry the sampled series (so a recovered
		// /result keeps pre-crash points), and every job checkpoints on the
		// server cadence even when its spec asked for none — otherwise a
		// crash would replay the whole trajectory from generation 0.
		cfg.CheckpointSeries = true
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = m.checkpointEvery
		}
	}
	cfg.Control = func(gen int) error {
		job.setGen(gen)
		switch job.ctrl.Load() {
		case ctrlPause:
			return errPauseRequested
		case ctrlCancel:
			return errCancelRequested
		case ctrlDrain:
			return errDrainRequested
		}
		return nil
	}
	stride := cfg.SampleStride
	cfg.Observer = sim.ObserverFunc(func(gen int, pop *sim.Population, ev sim.Events) {
		job.setGen(gen + 1)
		if gen%stride == 0 {
			job.hub.publish("sample", sampleEvent{
				Generation:  gen,
				Cooperation: pop.MeanCooperationProb(),
				Adopted:     ev.Adopted,
				Mutated:     ev.MutationOccurred,
			})
		}
	})

	var res *sim.Result
	var err error
	if job.Spec.Ranks >= 2 {
		res, err = sim.RunParallel(cfg, job.Spec.Ranks)
	} else {
		res, err = sim.RunSequential(cfg)
	}
	switch {
	case err == nil:
		m.settle(job, StateDone, res, "")
	case errors.Is(err, sim.ErrStopped) && job.ctrl.Load() == ctrlPause:
		snap, serr := job.sink.Latest()
		if serr != nil || snap == nil {
			m.settle(job, StateFailed, nil, fmt.Sprintf("pause snapshot unavailable: %v", serr))
			return
		}
		job.mu.Lock()
		job.snap = snap
		job.gen = int(snap.Generation)
		job.state = StatePaused
		if res != nil { // partial result: series observed before the cut
			job.priorFitness = append(job.priorFitness, seriesPoints(res.MeanFitness)...)
			job.priorCoop = append(job.priorCoop, seriesPoints(res.Cooperation)...)
		}
		job.mu.Unlock()
		job.ctrl.Store(ctrlRun)
		job.hub.publish("state", map[string]any{"id": job.ID, "state": StatePaused, "generation": snap.Generation})
		m.persistState(job)
	case errors.Is(err, sim.ErrStopped) && job.ctrl.Load() == ctrlDrain:
		// Shutdown drain: the engine persisted a durable snapshot before
		// stopping; park the job as queued so recovery resumes it from
		// exactly this boundary.
		snap, serr := job.sink.Latest()
		if serr != nil || snap == nil {
			m.settle(job, StateFailed, nil, fmt.Sprintf("drain snapshot unavailable: %v", serr))
			return
		}
		job.mu.Lock()
		job.snap = snap
		job.gen = int(snap.Generation)
		job.state = StateQueued
		if res != nil {
			job.priorFitness = append(job.priorFitness, seriesPoints(res.MeanFitness)...)
			job.priorCoop = append(job.priorCoop, seriesPoints(res.Cooperation)...)
		}
		job.mu.Unlock()
		job.hub.publish("state", map[string]any{"id": job.ID, "state": StateQueued, "generation": snap.Generation})
		m.persistState(job)
	case errors.Is(err, sim.ErrStopped):
		m.settle(job, StateCanceled, nil, "")
	default:
		m.settle(job, StateFailed, nil, err.Error())
	}
}

// settle moves a job to a terminal state exactly once: records the outcome,
// releases its budget reservation and tenant slot, folds its metrics into
// the daemon registry, and closes its event stream.
func (m *Manager) settle(job *Job, state State, res *sim.Result, errMsg string) {
	job.mu.Lock()
	if job.state.terminal() {
		job.mu.Unlock()
		return
	}
	job.state = state
	job.result = res
	job.errMsg = errMsg
	if res != nil {
		job.gen = job.cfg.StartGeneration + job.cfg.Generations
		if state == StateDone {
			job.wire = buildWireLocked(job, res)
		}
	}
	job.mu.Unlock()

	m.mu.Lock()
	m.outstanding -= job.EstimatedSeconds
	if m.outstanding < 0 {
		m.outstanding = 0
	}
	m.mu.Unlock()
	m.quotas.release(job.Tenant)
	m.reg.Counter(metrics.Name("egd_server_jobs_finished_total", "state", string(state))).Inc()
	if res != nil {
		if runReg := res.MetricsRegistry(); runReg != nil {
			foldCounters(m.reg, runReg)
		}
	}
	job.hub.publish("state", map[string]any{"id": job.ID, "state": state, "error": errMsg})
	job.hub.close()
	m.persistState(job)
	if m.store != nil {
		m.store.removeCheckpoint(job.ID)
	}
}

// foldCounters accumulates a finished run's counters into the daemon
// registry (snapshots are name-sorted, so the fold order is deterministic).
func foldCounters(dst, src *metrics.Registry) {
	snap := src.Snapshot()
	for _, c := range snap.Counters {
		dst.Counter(c.Name).Add(c.Value)
	}
}

// specError is a malformed-submission rejection (HTTP 400).
type specError struct {
	Detail string `json:"detail"`
}

func (e *specError) Error() string { return "server: invalid job spec: " + e.Detail }

// stateError is an invalid lifecycle transition (HTTP 409).
type stateError struct {
	Detail string `json:"detail"`
}

func (e *stateError) Error() string { return "server: invalid state transition: " + e.Detail }
