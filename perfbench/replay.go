package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/checkpoint"
	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/strategy"
)

// The replays below time one layer's public functions on inputs a workload
// produced, in isolation from the rest of the program. Each keeps its
// results in sink so the compiler cannot drop the timed calls.

var sink float64

func (e *env) replaySpan(name string) func() {
	end := e.tr.begin(name, "replay", 0, "")
	return end
}

// replayPlayPure returns ns per match of the bit-packed pure kernel over
// every ordered pair of the population.
func replayPlayPure(e *env, pop []*strategy.Pure, rules game.Rules) float64 {
	defer e.replaySpan("replay game.PlayPure")()
	n := len(pop)
	return nsPerOp(e.sz.replay, n*(n-1), func() {
		for i, a := range pop {
			for j, b := range pop {
				if i != j {
					sink += game.PlayPure(rules, a, b).Fitness0
				}
			}
		}
	})
}

// replayPlay returns ns per match of the general sampled match over every
// ordered pair of the population.
func replayPlay(e *env, pop []strategy.Strategy, rules game.Rules) float64 {
	defer e.replaySpan("replay game.Play")()
	n := len(pop)
	src := rng.New(e.seed)
	return nsPerOp(e.sz.replay, n*(n-1), func() {
		for i, a := range pop {
			for j, b := range pop {
				if i != j {
					sink += game.Play(rules, a, b, src).Fitness0
				}
			}
		}
	})
}

// replayCacheHit returns ns per hit of the pair cache, filled with every
// ordered pair of the population as the engine keys them.
func replayCacheHit(e *env, pop []strategy.Strategy, rules game.Rules, exact bool) (float64, error) {
	defer e.replaySpan("replay game.PairCache.Get")()
	fps := make([]strategy.Fingerprint, len(pop))
	for i, s := range pop {
		fp, ok := strategy.CanonicalFingerprint(s)
		if !ok {
			return 0, fmt.Errorf("strategy %d has no canonical fingerprint", i)
		}
		fps[i] = fp
	}
	var keys []game.PairKey
	for i := range fps {
		for j := range fps {
			if i != j {
				keys = append(keys, game.NewPairKey(fps[i], fps[j], rules, exact))
			}
		}
	}
	c := game.NewPairCache(0)
	for k, key := range keys {
		c.Put(key, float64(k))
	}
	var missed bool
	ns := nsPerOp(e.sz.replay, len(keys), func() {
		for _, key := range keys {
			v, ok := c.Get(key)
			missed = missed || !ok
			sink += v
		}
	})
	if missed {
		return 0, fmt.Errorf("pair cache missed a key it holds")
	}
	return ns, nil
}

// replayFingerprint returns ns per canonical fingerprint of the
// population's strategies.
func replayFingerprint(e *env, pop []strategy.Strategy) float64 {
	defer e.replaySpan("replay strategy.CanonicalFingerprint")()
	return nsPerOp(e.sz.replay, len(pop), func() {
		for _, s := range pop {
			fp, _ := strategy.CanonicalFingerprint(s)
			sink += float64(fp.Hi & 1)
		}
	})
}

// replayMarkov returns ns per exact Markov payoff over every ordered pair of
// the population.
func replayMarkov(e *env, pop []strategy.Strategy, rules game.Rules) (float64, error) {
	defer e.replaySpan("replay analysis.MarkovPayoffN")()
	n := len(pop)
	var firstErr error
	ns := nsPerOp(e.sz.replay, n*(n-1), func() {
		for i, a := range pop {
			for j, b := range pop {
				if i == j {
					continue
				}
				pi0, _, err := analysis.MarkovPayoffN(rules.Payoff, a, b, rules.ErrorRate)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				sink += pi0
			}
		}
	})
	return ns, firstErr
}

// updateMsg has the shape of the engine's per-generation update broadcast:
// the generation's event words and the mutant's strategy table. The
// ping-pong replays send one carrying a workload strategy.
type updateMsg struct {
	Adopted           bool
	Learner, Teacher  int
	Mutated           bool
	Mutant            int
	MutantStrategy    strategy.Strategy
	MeanFitnessWanted bool
}

func init() { mpi.RegisterWirePayload(updateMsg{}) }

// WireBytes models the payload as the engine models its update: six header
// words plus the strategy table (a bit per state, or a float64 per state
// for a mixed strategy).
func (u updateMsg) WireBytes() uint64 {
	states := uint64(u.MutantStrategy.Space().NumStates())
	if _, ok := u.MutantStrategy.(*strategy.Mixed); ok {
		return 6*8 + states*8
	}
	return 6*8 + states/8
}

// pingpongRounds is the number of round trips one ping-pong replay times
// after a warm-up exchange.
const pingpongRounds = 2000

// pingpongBody bounces payload between ranks 0 and 1 and stores rank 0's
// mean round-trip time in microseconds.
func pingpongBody(payload any, out *float64) func(c *mpi.Comm) error {
	const tag = 7
	return func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			for i := 0; i <= pingpongRounds; i++ {
				m, err := c.Recv(0, tag)
				if err != nil {
					return err
				}
				if err := c.Send(0, tag, m.Payload); err != nil {
					return err
				}
			}
			return nil
		}
		var t0 time.Time
		for i := 0; i <= pingpongRounds; i++ {
			if i == 1 {
				t0 = time.Now()
			}
			if err := c.Send(1, tag, payload); err != nil {
				return err
			}
			if _, err := c.Recv(1, tag); err != nil {
				return err
			}
		}
		*out = float64(time.Since(t0).Nanoseconds()) / 1e3 / pingpongRounds
		return nil
	}
}

// pingpongInproc returns the round-trip time of payload between two
// goroutine ranks of one in-process world.
func pingpongInproc(e *env, payload any) (float64, error) {
	defer e.replaySpan("replay mpi ping-pong in-process")()
	var us float64
	err := mpi.NewWorld(2).Run(pingpongBody(payload, &us))
	return us, err
}

// pingpongUnix returns the round-trip time of payload between two ranks
// joined by unix sockets, through the wire codec.
func pingpongUnix(e *env, payload any) (float64, error) {
	defer e.replaySpan("replay mpi ping-pong unix")()
	var us float64
	err := runMesh(e.dir, 2, "pingpong", pingpongBody(payload, &us))
	return us, err
}

// replayCheckpoint writes snap to a file in dir and fsyncs it, as the
// durable checkpoint sink does, and returns the median milliseconds per
// write and the file's size.
func replayCheckpoint(e *env, dir string, snap *checkpoint.Snapshot) (ms, bytes float64, err error) {
	defer e.replaySpan("replay checkpoint.Write+fsync")()
	path := filepath.Join(dir, "replay.ckpt")
	d, err := timeEach(e.sz.fsyncReps, func() error { return writeSynced(path, snap) })
	if err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return float64(d) / 1e6, float64(fi.Size()), os.Remove(path)
}

func writeSynced(path string, snap *checkpoint.Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := checkpoint.Write(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayFsync returns the median milliseconds to append one journal-sized
// record to a file in dir and fsync it: the host disk's cost per durable
// service write.
func replayFsync(e *env, dir string) (float64, error) {
	defer e.replaySpan("replay fsync")()
	path := filepath.Join(dir, "replay.fsync")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, err
	}
	line := make([]byte, 160)
	line[len(line)-1] = '\n'
	d, err := timeEach(e.sz.fsyncReps, func() error {
		if _, err := f.Write(line); err != nil {
			return err
		}
		return f.Sync()
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return float64(d) / 1e6, os.Remove(path)
}
