package sim

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mpi"
)

// The paper's central software property: the parallel decomposition changes
// where work runs, not what is computed. These tests pin the parallel
// engine's trajectory to the sequential reference for a range of rank
// counts, strategy kinds, and evaluation modes.

func assertSameTrajectory(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Counters.PCEvents != b.Counters.PCEvents ||
		a.Counters.Adoptions != b.Counters.Adoptions ||
		a.Counters.Mutations != b.Counters.Mutations ||
		a.Counters.GamesPlayed != b.Counters.GamesPlayed {
		t.Fatalf("counters differ: %+v vs %+v", a.Counters, b.Counters)
	}
	if len(a.Final) != len(b.Final) {
		t.Fatalf("final population sizes differ")
	}
	for i := range a.Final {
		if !a.Final[i].Equal(b.Final[i]) {
			t.Fatalf("final strategy %d differs", i)
		}
	}
	for i := range a.FinalFitness {
		if a.FinalFitness[i] != b.FinalFitness[i] {
			t.Fatalf("final fitness %d differs: %v vs %v", i, a.FinalFitness[i], b.FinalFitness[i])
		}
	}
	if a.MeanFitness.Len() != b.MeanFitness.Len() {
		t.Fatalf("series lengths differ: %d vs %d", a.MeanFitness.Len(), b.MeanFitness.Len())
	}
	for i := 0; i < a.MeanFitness.Len(); i++ {
		ga, va := a.MeanFitness.At(i)
		gb, vb := b.MeanFitness.At(i)
		if ga != gb {
			t.Fatalf("series generation %d vs %d", ga, gb)
		}
		// Summation order differs between a tree reduction and a serial
		// loop; allow last-ulp drift only.
		if math.Abs(va-vb) > 1e-9 {
			t.Fatalf("mean fitness at gen %d: %v vs %v", ga, va, vb)
		}
	}
}

func TestParallelMatchesSequentialAcrossRankCounts(t *testing.T) {
	cfg := testConfig(1, 12, 60)
	cfg.Seed = 101
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3, 4, 5, 8, 13} {
		par, err := RunParallel(cfg, ranks)
		if err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		if par.Ranks != ranks {
			t.Fatalf("result ranks %d", par.Ranks)
		}
		assertSameTrajectory(t, seq, par)
	}
}

func TestParallelParityMixedStrategiesWithErrors(t *testing.T) {
	cfg := testConfig(1, 9, 50)
	cfg.Seed = 102
	cfg.Kind = MixedStrategies
	cfg.Rules.ErrorRate = 0.02
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4, 7} {
		par, err := RunParallel(cfg, ranks)
		if err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		assertSameTrajectory(t, seq, par)
	}
}

func TestParallelParityFullRecompute(t *testing.T) {
	cfg := testConfig(2, 8, 30)
	cfg.Seed = 103
	cfg.FullRecompute = true
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)
}

func TestParallelParityHigherMemory(t *testing.T) {
	cfg := testConfig(3, 6, 20)
	cfg.Seed = 104
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)
}

func TestParallelValidation(t *testing.T) {
	cfg := testConfig(1, 4, 10)
	if _, err := RunParallel(cfg, 1); err == nil {
		t.Fatal("1 rank accepted (needs Nature + worker)")
	}
	if _, err := RunParallel(cfg, 0); err == nil {
		t.Fatal("0 ranks accepted")
	}
	// Workers are capped by the games of one generation, S*(S-1) = 12.
	if _, err := RunParallel(cfg, 14); err == nil {
		t.Fatal("more workers than games accepted")
	}
	if _, err := RunParallel(cfg, 13); err != nil {
		t.Fatalf("max workers rejected: %v", err)
	}
}

func TestParallelParityMoreWorkersThanSSets(t *testing.T) {
	// The paper's second parallelism level: with more processors than
	// SSets, one SSet's games split across workers ("each processor
	// handles between 1/2 and 8 full SSets"). Parity must hold when rows
	// span several workers, including with PC fitness reassembly.
	cfg := testConfig(1, 5, 60)
	cfg.Seed = 107
	cfg.PCRate = 0.5 // exercise segment reassembly often
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{7, 11, 16, 21} { // 6..20 workers for 20 games
		par, err := RunParallel(cfg, ranks)
		if err != nil {
			t.Fatalf("ranks %d: %v", ranks, err)
		}
		assertSameTrajectory(t, seq, par)
	}
}

func TestParallelParityMaxWorkersOnePairEach(t *testing.T) {
	cfg := testConfig(1, 4, 30)
	cfg.Seed = 108
	cfg.Kind = MixedStrategies
	cfg.Rules.ErrorRate = 0.02
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 13) // 12 workers: exactly one game pair each
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)
}

func TestParallelObserverRuns(t *testing.T) {
	cfg := testConfig(1, 6, 15)
	cfg.Seed = 105
	count := 0
	adopted := 0
	cfg.Observer = ObserverFunc(func(gen int, pop *Population, ev Events) {
		count++
		if ev.Adopted {
			adopted++
		}
	})
	res, err := RunParallel(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if count != 15 {
		t.Fatalf("observer called %d times", count)
	}
	if uint64(adopted) != res.Counters.Adoptions {
		t.Fatalf("observer saw %d adoptions, counters say %d", adopted, res.Counters.Adoptions)
	}
}

func TestParallelOneSSetPerWorker(t *testing.T) {
	cfg := testConfig(1, 6, 25)
	cfg.Seed = 106
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(cfg, 7) // 6 workers, 1 SSet each
	if err != nil {
		t.Fatal(err)
	}
	assertSameTrajectory(t, seq, par)
}

// engineRecord captures what a run exposes besides its Result: every
// Observer callback's (generation, Events) and the encoded bytes of every
// checkpoint snapshot, in the order they were written.
type engineRecord struct {
	events []observedGen
	snaps  [][]byte
}

type observedGen struct {
	gen int
	ev  Events
}

// Save implements CheckpointSink by encoding each snapshot through
// checkpoint.Write, so two runs compare on the bytes a file would hold.
func (r *engineRecord) Save(s *checkpoint.Snapshot) error {
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, s); err != nil {
		return err
	}
	r.snaps = append(r.snaps, buf.Bytes())
	return nil
}

// Latest implements CheckpointSink.
func (r *engineRecord) Latest() (*checkpoint.Snapshot, error) {
	if len(r.snaps) == 0 {
		return nil, nil
	}
	return checkpoint.Read(bytes.NewReader(r.snaps[len(r.snaps)-1]))
}

// recorded returns cfg wired to a fresh record: an Observer logging
// (gen, Events) and a checkpoint sink every 7 generations. The series stay
// out of the snapshots (CheckpointSeries off): the sampled mean fitness
// differs in the last bit between a serial sum and a tree reduction.
func recorded(cfg Config) (Config, *engineRecord) {
	rec := &engineRecord{}
	cfg.Observer = ObserverFunc(func(gen int, _ *Population, ev Events) {
		rec.events = append(rec.events, observedGen{gen, ev})
	})
	cfg.CheckpointEvery = 7
	cfg.CheckpointSink = rec
	cfg.CheckpointSeries = false
	return cfg, rec
}

func assertSameRecord(t *testing.T, want, got *engineRecord) {
	t.Helper()
	if len(want.events) != len(got.events) {
		t.Fatalf("observer calls: %d vs %d", len(want.events), len(got.events))
	}
	for k := range want.events {
		if want.events[k] != got.events[k] {
			t.Fatalf("observer call %d: %+v vs %+v", k, want.events[k], got.events[k])
		}
	}
	if len(want.snaps) != len(got.snaps) {
		t.Fatalf("snapshots written: %d vs %d", len(want.snaps), len(got.snaps))
	}
	for k := range want.snaps {
		if !bytes.Equal(want.snaps[k], got.snaps[k]) {
			t.Fatalf("snapshot %d differs between engines", k)
		}
	}
}

// The two engines agree on more than the final Result: every generation's
// events, as the Observer sees them, and every checkpoint snapshot byte for
// byte, across strategy kinds, noise, evaluation modes and rank counts —
// and through a live eviction of a killed worker.
func TestCrossEngineEventsAndSnapshots(t *testing.T) {
	type variant struct {
		name  string
		mixed bool
		full  bool
	}
	for _, v := range []variant{
		{"pure/full", false, true},
		{"pure/incremental", false, false},
		{"mixed-noisy/full", true, true},
		{"mixed-noisy/incremental", true, false},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := testConfig(1, 7, 45)
			cfg.Seed = 131
			cfg.PCRate = 0.5
			cfg.Mu = 0.2
			cfg.FullRecompute = v.full
			if v.mixed {
				cfg.Kind = MixedStrategies
				cfg.Rules.ErrorRate = 0.05
			}
			seqCfg, want := recorded(cfg)
			if _, err := RunSequential(seqCfg); err != nil {
				t.Fatal(err)
			}
			if len(want.events) != cfg.Generations || len(want.snaps) != cfg.Generations/7 {
				t.Fatalf("sequential run recorded %d events, %d snapshots", len(want.events), len(want.snaps))
			}
			for _, ranks := range []int{2, 3, 7} {
				parCfg, got := recorded(cfg)
				if _, err := RunParallel(parCfg, ranks); err != nil {
					t.Fatalf("ranks %d: %v", ranks, err)
				}
				assertSameRecord(t, want, got)
			}
		})
	}
	t.Run("evict", func(t *testing.T) {
		cfg := testConfig(1, 8, 120)
		cfg.Seed = 132
		cfg.PCRate = 0.5
		cfg.FullRecompute = true
		seqCfg, want := recorded(cfg)
		if _, err := RunSequential(seqCfg); err != nil {
			t.Fatal(err)
		}
		parCfg, got := recorded(evictConfig(cfg))
		parCfg.FaultPlan = mpi.NewFaultPlan().Kill(2, 60)
		res, err := RunParallel(parCfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !parCfg.FaultPlan.Faults()[0].Fired() || res.Evictions != 1 {
			t.Fatalf("scripted kill fired=%v, evictions=%d", parCfg.FaultPlan.Faults()[0].Fired(), res.Evictions)
		}
		assertSameRecord(t, want, got)
	})
}
