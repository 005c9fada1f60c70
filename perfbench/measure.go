package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank method (0 for
// an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// allocMeter measures heap bytes allocated by the whole process between
// start and the call to mb.
type allocMeter struct{ start uint64 }

func startAlloc() allocMeter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMeter{start: ms.TotalAlloc}
}

// mbPer returns the megabytes allocated since start divided by n units of
// work.
func (a allocMeter) mbPer(n int) float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc-a.start) / 1e6 / float64(max(n, 1))
}

// peakRSSMB returns the process's peak resident set size (getrusage
// ru_maxrss, which Linux reports in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}

// timeEach runs f n times and returns the median duration of one call.
func timeEach(n int, f func() error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// nsPerOp times passes of op, each covering ops operations, for about
// budget, and returns the median pass's nanoseconds per operation.
func nsPerOp(budget time.Duration, ops int, pass func()) float64 {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		pass()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return median(per)
}
