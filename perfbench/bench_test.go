package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s has unit %q, want one matching %s", d.Name, d.Unit, unitRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for w, names := range layerMetrics {
		if _, ok := workloads[w]; !ok {
			t.Errorf("layerMetrics names unknown workload %s", w)
		}
		for _, n := range names {
			if !seen[n] {
				t.Errorf("workload %s measures unlisted metric %s", w, n)
			}
		}
	}
}

// The benchmark's own description must list exactly the workloads and
// metrics the code reports, with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not run by the code", w.Name)
		}
	}
	for _, c := range []struct {
		what       string
		json, code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code reports %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i := range c.code {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", c.what, i, c.json[i], c.code[i])
			}
		}
	}
}

// smokeSize shrinks every workload to a fraction of a second.
var smokeSize = sizes{
	table6SSets: 8, table6Gens: 3,
	cachedSSets: 6, exactSSets: 4, serveGens: 60,
	pool: 2, setupReps: 2, fsyncReps: 2, replay: 10 * time.Millisecond,
}

// mayReadZero are the per-layer metrics a healthy run can measure as 0.
var mayReadZero = map[string]bool{
	"mpi.wire_resends": true, "mpi.wire_decode_errs": true, "game.cache_evictions": true,
	"server.sse_reconnects_per_job": true, "bench.trace_overhead_frac": true,
}

// Each workload, traced and untraced, passes its correctness gate at a tiny
// size and reports every metric of its mode.
func TestSmokeRunsPassCorrectnessGate(t *testing.T) {
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				dir := t.TempDir()
				tracePath := filepath.Join(dir, "trace.json")
				res, err := runWorkload(name, 7, 200*time.Millisecond, traced, smokeSize, filepath.Join(dir, "work"), tracePath)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v := res.Metrics[d.Name].Value
					if !traced && !(v > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
					}
					if traced && measures(name, d.Name) && !mayReadZero[d.Name] && !(v > 0) {
						t.Errorf("per-layer metric %s = %v, want > 0", d.Name, v)
					}
				}
				if traced {
					assertTrace(t, tracePath)
				}
			})
		}
	}
}

func assertTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace holds no spans")
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 0 || ev.Name == "" {
			t.Fatalf("malformed span %+v", ev)
		}
	}
}

// A reference output matches itself, and a change to any one field is
// rejected and changes the digest.
func TestMatchReferenceDetectsDifferences(t *testing.T) {
	ref := outcome{
		FinalFitness: []float64{1, 2},
		Fingerprints: []string{"a", "b"},
		MeanFitness:  []point{{0, 1.5}},
		Cooperation:  []point{{0, 0.5}},
	}
	if err := matchReference(ref, ref, 0); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(o *outcome){
		"fitness":     func(o *outcome) { o.FinalFitness = []float64{1, 2.5} },
		"fingerprint": func(o *outcome) { o.Fingerprints = []string{"a", "c"} },
		"counters":    func(o *outcome) { o.Counters.Adoptions = 1 },
		"cooperation": func(o *outcome) { o.Cooperation = []point{{0, 0.6}} },
		"mean":        func(o *outcome) { o.MeanFitness = []point{{0, 1.5 + 1e-6}} },
	} {
		got := ref
		mutate(&got)
		if matchReference(ref, got, meanFitnessTol) == nil {
			t.Errorf("changed %s was accepted", name)
		}
		if got.digest() == ref.digest() {
			t.Errorf("changed %s kept the digest", name)
		}
	}
}
