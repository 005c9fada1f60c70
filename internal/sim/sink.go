package sim

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/stats"
)

// CheckpointSink receives the Nature Agent's periodic snapshots and serves
// the latest one back to the recovery supervisor.
type CheckpointSink interface {
	// Save persists a snapshot; a later Save supersedes earlier ones.
	Save(s *checkpoint.Snapshot) error
	// Latest returns the most recent snapshot, or (nil, nil) when nothing
	// has been saved yet.
	Latest() (*checkpoint.Snapshot, error)
}

// MemorySink keeps the latest snapshot in memory, encoded through the
// checkpoint codec so Save/Latest exercise exactly the bytes a file would
// hold and the caller can never alias live population state. It is the
// supervisor's default sink and safe for concurrent use.
type MemorySink struct {
	mu    sync.Mutex
	data  []byte
	saves int
}

// NewMemorySink creates an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Save implements CheckpointSink.
func (m *MemorySink) Save(s *checkpoint.Snapshot) error {
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, s); err != nil {
		return err
	}
	m.mu.Lock()
	m.data = buf.Bytes()
	m.saves++
	m.mu.Unlock()
	return nil
}

// Latest implements CheckpointSink.
func (m *MemorySink) Latest() (*checkpoint.Snapshot, error) {
	m.mu.Lock()
	data := m.data
	m.mu.Unlock()
	if data == nil {
		return nil, nil
	}
	return checkpoint.Read(bytes.NewReader(data))
}

// Saves returns how many snapshots have been saved.
func (m *MemorySink) Saves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

// FileSink persists the latest snapshot to a single file, atomically and
// durably: write to a temporary file in the same directory, fsync it, rename
// over the target, then fsync the directory. A crash at any point leaves
// either the previous good checkpoint or the new one — never a torn or
// zero-length file (a rename alone is atomic in the namespace but not
// durable: after a power loss the directory entry can point at a file whose
// data never reached disk).
type FileSink struct {
	Path string

	// writeFn overrides the snapshot encoder (tests inject failures mid-write
	// to prove a torn write never replaces the previous checkpoint); nil
	// means checkpoint.Write.
	writeFn func(w io.Writer, s *checkpoint.Snapshot) error
}

// Save implements CheckpointSink.
func (f *FileSink) Save(s *checkpoint.Snapshot) error {
	write := f.writeFn
	if write == nil {
		write = checkpoint.Write
	}
	dir := filepath.Dir(f.Path)
	tmp, err := os.CreateTemp(dir, filepath.Base(f.Path)+".tmp*")
	if err != nil {
		return fmt.Errorf("sim: checkpoint temp file: %w", err)
	}
	if err := write(tmp, s); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: checkpoint fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), f.Path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sim: checkpoint rename: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sim: checkpoint dir open: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sim: checkpoint dir fsync: %w", err)
	}
	return nil
}

// Latest implements CheckpointSink.
func (f *FileSink) Latest() (*checkpoint.Snapshot, error) {
	file, err := os.Open(f.Path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return checkpoint.Read(file)
}

// save captures the population after gen completed generations, with the
// run's cumulative counters — and, under cfg.CheckpointSeries, the series
// sampled so far — into the configured sink.
func (n *nature) save(gen int) error {
	snap := &checkpoint.Snapshot{
		Generation: uint64(gen),
		Seed:       n.cfg.Seed,
		Memory:     n.cfg.Memory,
		Strategies: n.pop.Snapshot(),
		Counters:   countersToRun(n.res.Counters),
	}
	if n.cfg.CheckpointSeries {
		snap.MeanFitness = seriesToPoints(n.res.MeanFitness)
		snap.Cooperation = seriesToPoints(n.res.Cooperation)
	}
	if err := n.cfg.CheckpointSink.Save(snap); err != nil {
		return fmt.Errorf("sim: checkpoint at generation %d: %w", gen, err)
	}
	return nil
}

// seriesToPoints flattens a sampled series into checkpoint points. The
// result is non-nil even when empty: "recorded, nothing sampled yet" is
// distinct from "not recorded" in the snapshot encoding.
func seriesToPoints(s *stats.Series) []checkpoint.SeriesPoint {
	if s == nil {
		return []checkpoint.SeriesPoint{}
	}
	out := make([]checkpoint.SeriesPoint, s.Len())
	for i := range out {
		g, v := s.At(i)
		out[i] = checkpoint.SeriesPoint{Generation: uint64(g), Value: v}
	}
	return out
}

// countersToRun converts sim counters to their checkpoint form.
func countersToRun(c Counters) *checkpoint.RunCounters {
	return &checkpoint.RunCounters{
		GamesPlayed: c.GamesPlayed,
		PCEvents:    c.PCEvents,
		Adoptions:   c.Adoptions,
		Mutations:   c.Mutations,
	}
}

// Resume returns c continued from snap, a checkpoint of the same run: the
// population starts from snap's strategies at snap's generation, with its
// cumulative counters when it carries them, and the run keeps its end
// generation, c.StartGeneration+c.Generations. Per-generation randomness
// re-derives from (Seed, generation), so the resumed run continues the
// original trajectory. It rejects a snapshot of another run (seed, memory
// or SSet count differ), which would silently fork the trajectory, and one
// outside the run's window. A caller that wants to run a fixed number of
// generations past the checkpoint sets StartGeneration to its generation
// first.
func (c Config) Resume(snap *checkpoint.Snapshot) (Config, error) {
	if snap.Seed != c.Seed || snap.Memory != c.Memory || len(snap.Strategies) != c.NumSSets {
		return c, fmt.Errorf("sim: checkpoint (seed %d, memory %d, %d SSets) does not match run (seed %d, memory %d, %d SSets)",
			snap.Seed, snap.Memory, len(snap.Strategies), c.Seed, c.Memory, c.NumSSets)
	}
	end := c.StartGeneration + c.Generations
	gen := int(snap.Generation)
	if gen < c.StartGeneration || gen > end {
		return c, fmt.Errorf("sim: checkpoint generation %d outside run window [%d,%d]", gen, c.StartGeneration, end)
	}
	c.InitialStrategies = snap.Strategies
	c.StartGeneration = gen
	c.Generations = end - gen
	if snap.Counters != nil {
		c.BaseCounters = runToCounters(snap.Counters)
	}
	return c, nil
}

// runToCounters converts checkpoint counters back; a nil input (a version-1
// snapshot) yields zero counters.
func runToCounters(rc *checkpoint.RunCounters) Counters {
	if rc == nil {
		return Counters{}
	}
	return Counters{
		GamesPlayed: rc.GamesPlayed,
		PCEvents:    rc.PCEvents,
		Adoptions:   rc.Adoptions,
		Mutations:   rc.Mutations,
	}
}
