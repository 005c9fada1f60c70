// Package stats provides the accumulators the simulation uses to summarise
// evolution trajectories: time series with fixed-stride sampling, and
// strategy-abundance tracking used for the paper's Fig. 2 analysis.
package stats

import (
	"fmt"
	"sort"
)

// Series is a time series sampled at a fixed generation stride, bounding
// memory for the paper's 10^7-generation runs.
type Series struct {
	stride int
	gens   []int
	vals   []float64
}

// NewSeries creates a series that keeps every stride-th observation
// (stride >= 1).
func NewSeries(stride int) (*Series, error) {
	if stride < 1 {
		return nil, fmt.Errorf("stats: series stride %d < 1", stride)
	}
	return &Series{stride: stride}, nil
}

// Observe records the value at a generation if it falls on the stride.
func (s *Series) Observe(gen int, v float64) {
	if gen%s.stride != 0 {
		return
	}
	s.gens = append(s.gens, gen)
	s.vals = append(s.vals, v)
}

// Len returns the number of kept samples.
func (s *Series) Len() int { return len(s.gens) }

// At returns the i-th kept (generation, value) pair.
func (s *Series) At(i int) (int, float64) { return s.gens[i], s.vals[i] }

// Last returns the most recent kept pair; ok is false when empty.
func (s *Series) Last() (gen int, v float64, ok bool) {
	if len(s.gens) == 0 {
		return 0, 0, false
	}
	return s.gens[len(s.gens)-1], s.vals[len(s.vals)-1], true
}

// Truncate discards all samples past the first n, rolling the series back to
// an earlier observation point — used when a recovered run replays
// generations that had already been observed, so the replay cannot
// double-record them. Out-of-range n is a no-op.
func (s *Series) Truncate(n int) {
	if n < 0 || n >= len(s.gens) {
		return
	}
	s.gens = s.gens[:n]
	s.vals = s.vals[:n]
}

// Abundance tracks how many SSets hold each distinct strategy, keyed by the
// strategy's content fingerprint. It answers the paper's Fig. 2 question:
// what fraction of the population has adopted a given strategy.
type Abundance struct {
	counts map[uint64]int
	total  int
}

// NewAbundance returns an empty tracker.
func NewAbundance() *Abundance {
	return &Abundance{counts: make(map[uint64]int)}
}

// Add counts one SSet holding the strategy with the given fingerprint.
func (a *Abundance) Add(fingerprint uint64) {
	a.counts[fingerprint]++
	a.total++
}

// Total returns the number of SSets counted.
func (a *Abundance) Total() int { return a.total }

// Distinct returns the number of distinct strategies present.
func (a *Abundance) Distinct() int { return len(a.counts) }

// Fraction returns the share of SSets holding the fingerprinted strategy.
func (a *Abundance) Fraction(fingerprint uint64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.counts[fingerprint]) / float64(a.total)
}

// Entry is one row of an abundance ranking.
type Entry struct {
	Fingerprint uint64
	Count       int
	Fraction    float64
}

// Top returns the k most abundant strategies, descending (ties broken by
// fingerprint for determinism).
func (a *Abundance) Top(k int) []Entry {
	out := make([]Entry, 0, len(a.counts))
	for f, c := range a.counts {
		out = append(out, Entry{Fingerprint: f, Count: c, Fraction: float64(c) / float64(max(1, a.total))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
