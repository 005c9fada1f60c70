package sim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// RestartPolicy governs how RunParallelResilient reacts to rank failures.
// The zero value restarts up to 3 times with no backoff and no degradation.
type RestartPolicy struct {
	// MaxRestarts is the number of restarts attempted before giving up
	// (0 selects the default of 3; negative disables restarts entirely).
	MaxRestarts int
	// Backoff is the delay before the first restart; it doubles on each
	// subsequent restart. Zero restarts immediately.
	Backoff time.Duration
	// MaxBackoff caps the doubling (0 means uncapped).
	MaxBackoff time.Duration
	// Degrade, when true, drops the failed worker on each restart: the run
	// continues on one fewer rank. Correctness is unaffected — the engine's
	// trajectory is identical at any rank count — only the work split
	// changes.
	Degrade bool
	// MinRanks is the smallest world Degrade may shrink to (values < 2 mean
	// 2, the engine's floor of Nature plus one worker).
	MinRanks int
}

func (p RestartPolicy) maxRestarts() int {
	if p.MaxRestarts == 0 {
		return 3
	}
	return max(p.MaxRestarts, 0)
}

func (p RestartPolicy) minRanks() int { return max(p.MinRanks, 2) }

func (p RestartPolicy) backoff(attempt int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	b := p.Backoff << uint(attempt)
	if p.MaxBackoff > 0 && b > p.MaxBackoff {
		b = p.MaxBackoff
	}
	return b
}

// RunParallelResilient is the fault-tolerant front end to RunParallel: it
// supervises the run, and when a rank fails (an injected fault, a panic, or
// a receive deadline firing on a stalled worker) it restores the latest
// checkpoint and re-runs the remaining generations, up to policy.MaxRestarts
// times. Because every per-generation random stream is keyed by the absolute
// generation, the recovered trajectory is the uninterrupted one: final
// strategies and fitness are bit-identical to a fault-free run (and with
// FullRecompute the counters match exactly too; incremental runs replay one
// generation's games at each resume, which only inflates GamesPlayed).
//
// Recovery is evict-first, restart-second: with cfg.Evict, worker failures
// are recovered live inside RunParallel (heartbeat detection, communicator
// shrink, one-generation replay — see par.go) and never reach this
// supervisor. Only failures live eviction cannot absorb — the Nature rank
// dying, or survivors dropping below cfg.MinRanks — surface here and take
// the checkpoint-restart path.
//
// When cfg.CheckpointEvery > 0 and no sink is configured, an in-memory sink
// is installed automatically. With checkpointing disabled, recovery restarts
// from the beginning — correct, but all progress is lost. With
// policy.Degrade, each restart drops the failed worker's rank from the world
// (never below policy.MinRanks); the trajectory is rank-count-invariant, so
// results are unchanged.
//
// The returned Result reports cumulative counters for the whole logical run;
// its sampled series (MeanFitness, Cooperation) cover only the generations
// since the last restart. Restarts records how many recoveries occurred.
func RunParallelResilient(cfg Config, ranks int, policy RestartPolicy) (*Result, error) {
	if cfg.CheckpointEvery > 0 && cfg.CheckpointSink == nil {
		cfg.CheckpointSink = NewMemorySink()
	}
	// Validate up front (normalising SampleStride against the full window,
	// so resumed segments sample on the original schedule); any later
	// failure is then a runtime fault and retryable.
	if err := checkRanks(&cfg, ranks); err != nil {
		return nil, err
	}

	logEvent := func(e trace.Event) {
		if cfg.EventLog != nil {
			cfg.EventLog.Append(e)
		}
	}

	cur := cfg
	for attempt := 0; ; attempt++ {
		res, err := RunParallel(cur, ranks)
		if err == nil {
			res.Restarts = attempt
			return res, nil
		}
		// A control-hook stop is a requested outcome, not a fault: return it
		// unchanged (with the partial result) so the caller (a pausing job
		// service, say) sees ErrStopped instead of the supervisor re-running
		// the stopped work.
		if errors.Is(err, ErrStopped) {
			return res, err
		}

		failedRank := -1
		var rf *mpi.RankFailedError
		if errors.As(err, &rf) {
			failedRank = rf.Rank
		}
		logEvent(trace.Event{
			Kind: trace.EventFault, Generation: -1, Rank: failedRank,
			Attempt: attempt, Detail: err.Error(),
		})
		if attempt >= policy.maxRestarts() {
			logEvent(trace.Event{Kind: trace.EventGiveUp, Generation: -1, Rank: failedRank, Attempt: attempt})
			return nil, fmt.Errorf("sim: giving up after %d restarts: %w", attempt, err)
		}

		if policy.Degrade && failedRank > 0 && ranks > policy.minRanks() {
			ranks--
			logEvent(trace.Event{
				Kind: trace.EventDegrade, Generation: -1, Rank: failedRank, Attempt: attempt,
				Detail: fmt.Sprintf("continuing on %d ranks", ranks),
			})
		}

		restart, resumeGen, err := restartConfig(cfg, attempt)
		if err != nil {
			return nil, err
		}
		cur = restart
		logEvent(trace.Event{Kind: trace.EventRecovery, Generation: resumeGen, Rank: failedRank, Attempt: attempt + 1})

		if b := policy.backoff(attempt); b > 0 {
			time.Sleep(b)
		}
	}
}

// restartConfig builds the configuration for the next attempt: the original
// run resumed from the latest checkpoint, or from scratch when none exists.
// It returns the absolute generation the attempt starts from.
func restartConfig(cfg Config, attempt int) (Config, int, error) {
	if cfg.CheckpointSink == nil {
		return cfg, cfg.StartGeneration, nil
	}
	snap, err := cfg.CheckpointSink.Latest()
	if err != nil {
		return cfg, 0, fmt.Errorf("sim: restart %d: reading checkpoint: %w", attempt+1, err)
	}
	if snap == nil {
		return cfg, cfg.StartGeneration, nil
	}
	cur, err := cfg.Resume(snap)
	if err != nil {
		return cfg, 0, fmt.Errorf("sim: restart %d: %w", attempt+1, err)
	}
	return cur, cur.StartGeneration, nil
}
