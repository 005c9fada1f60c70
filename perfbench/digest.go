package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// outcome is the science output a run is checked on, in the shape egdserve's
// /result serves it, so engine results and service results compare alike.
type outcome struct {
	FinalFitness []float64    `json:"final_fitness"`
	Fingerprints []string     `json:"fingerprints"`
	Counters     sim.Counters `json:"counters"`
	MeanFitness  []point      `json:"mean_fitness"`
	Cooperation  []point      `json:"cooperation"`
}

type point struct {
	Generation int     `json:"generation"`
	Value      float64 `json:"value"`
}

func outcomeOf(res *sim.Result) outcome {
	o := outcome{
		FinalFitness: res.FinalFitness,
		Fingerprints: make([]string, len(res.Final)),
		Counters:     res.Counters,
		MeanFitness:  points(res.MeanFitness),
		Cooperation:  points(res.Cooperation),
	}
	for i, s := range res.Final {
		o.Fingerprints[i] = fmt.Sprintf("%016x", s.Fingerprint())
	}
	return o
}

func points(s *stats.Series) []point {
	out := make([]point, s.Len())
	for i := range out {
		out[i].Generation, out[i].Value = s.At(i)
	}
	return out
}

// digest hashes every field bit for bit; equal digests mean identical
// outputs.
func (o outcome) digest() string {
	h := sha256.New()
	word := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	word(uint64(len(o.FinalFitness)))
	for _, f := range o.FinalFitness {
		word(math.Float64bits(f))
	}
	for _, fp := range o.Fingerprints {
		h.Write([]byte(fp))
	}
	c := o.Counters
	for _, v := range []uint64{c.GamesPlayed, c.PCEvents, c.Adoptions, c.Mutations} {
		word(v)
	}
	for _, s := range [][]point{o.MeanFitness, o.Cooperation} {
		word(uint64(len(s)))
		for _, p := range s {
			word(uint64(p.Generation))
			word(math.Float64bits(p.Value))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// meanFitnessTol is the drift allowed between the sequential engine's
// serial mean-fitness sum and the parallel engine's tree reduction; every
// other field must match exactly.
const meanFitnessTol = 1e-9

// matchReference reports how got differs from the reference output, nil
// when it does not. tol bounds the mean-fitness drift (0 demands identity).
func matchReference(ref, got outcome, tol float64) error {
	if ref.Counters != got.Counters {
		return fmt.Errorf("counters %+v, reference %+v", got.Counters, ref.Counters)
	}
	if len(ref.Fingerprints) != len(got.Fingerprints) || len(ref.FinalFitness) != len(got.FinalFitness) {
		return fmt.Errorf("final population size differs from the reference")
	}
	for i := range ref.Fingerprints {
		if ref.Fingerprints[i] != got.Fingerprints[i] {
			return fmt.Errorf("final strategy %d differs from the reference", i)
		}
		if ref.FinalFitness[i] != got.FinalFitness[i] {
			return fmt.Errorf("final fitness %d: %v, reference %v", i, got.FinalFitness[i], ref.FinalFitness[i])
		}
	}
	if err := matchSeries("cooperation", ref.Cooperation, got.Cooperation, 0); err != nil {
		return err
	}
	return matchSeries("mean fitness", ref.MeanFitness, got.MeanFitness, tol)
}

func matchSeries(name string, ref, got []point, tol float64) error {
	if len(ref) != len(got) {
		return fmt.Errorf("%s series has %d points, reference %d", name, len(got), len(ref))
	}
	for i := range ref {
		if ref[i].Generation != got[i].Generation || !(math.Abs(ref[i].Value-got[i].Value) <= tol) {
			return fmt.Errorf("%s sample %d: %+v, reference %+v", name, i, got[i], ref[i])
		}
	}
	return nil
}
