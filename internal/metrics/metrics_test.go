package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-10)
	if got := g.Load(); got != -3 {
		t.Fatalf("gauge = %d, want -3", got)
	}
}

// TestHistogramBucketing pins the le-semantics bucket assignment,
// including exact-boundary and overflow observations.
func TestHistogramBucketing(t *testing.T) {
	bounds := []float64{1, 10, 100}
	tests := []struct {
		name    string
		observe []float64
		counts  []uint64 // per-bucket, len(bounds)+1
		sum     float64
	}{
		{"empty", nil, []uint64{0, 0, 0, 0}, 0},
		{"below first bound", []float64{0.5}, []uint64{1, 0, 0, 0}, 0.5},
		{"exactly on bounds lands in that bucket", []float64{1, 10, 100}, []uint64{1, 1, 1, 0}, 111},
		{"between bounds rounds up", []float64{2, 99}, []uint64{0, 1, 1, 0}, 101},
		{"above every bound overflows", []float64{1000, 1e9}, []uint64{0, 0, 0, 2}, 1000 + 1e9},
		{"negative lands in first bucket", []float64{-5}, []uint64{1, 0, 0, 0}, -5},
		{"mixed", []float64{0, 1, 1.5, 10, 10.5, 100.5}, []uint64{2, 2, 1, 1}, 123.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := NewHistogram(bounds)
			for _, v := range tt.observe {
				h.Observe(v)
			}
			got := make([]uint64, len(h.counts))
			for i := range h.counts {
				got[i] = h.counts[i].Load()
			}
			if !reflect.DeepEqual(got, tt.counts) {
				t.Errorf("bucket counts = %v, want %v", got, tt.counts)
			}
			if h.Count() != uint64(len(tt.observe)) {
				t.Errorf("count = %d, want %d", h.Count(), len(tt.observe))
			}
			if math.Abs(h.Sum()-tt.sum) > 1e-9 {
				t.Errorf("sum = %v, want %v", h.Sum(), tt.sum)
			}
		})
	}
}

func TestNewHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8000 {
		t.Fatalf("sum = %v, want 8000", h.Sum())
	}
	if got := h.counts[1].Load(); got != 8000 {
		t.Fatalf("bucket = %d, want 8000", got)
	}
}

func TestNameSortsLabels(t *testing.T) {
	got := Name("m_total", "tag", "fitness", "rank", "2")
	want := `m_total{rank="2",tag="fitness"}`
	if got != want {
		t.Fatalf("Name = %s, want %s", got, want)
	}
	if got := Name("bare"); got != "bare" {
		t.Fatalf("Name with no labels = %s", got)
	}
}

// TestRegistrySnapshotDeterminism runs the same metric program twice in
// different interleavings and asserts byte-identical JSON snapshots:
// the property egdsim's -metrics output inherits.
func TestRegistrySnapshotDeterminism(t *testing.T) {
	program := func(names []string) Snapshot {
		r := NewRegistry()
		for _, n := range names {
			r.Counter(Name("sent_total", "rank", n)).Add(uint64(len(n)))
			r.Gauge("world_size").Set(4)
			r.Histogram(Name("latency_seconds", "rank", n), []float64{1e-3, 1e-2, 1e-1}).Observe(0.01)
		}
		return r.Snapshot()
	}
	a := program([]string{"0", "1", "2", "3"})
	b := program([]string{"3", "1", "0", "2"}) // same work, different creation order
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("snapshots differ:\n%s\n%s", aj, bj)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not idempotent")
	}
	h := r.Histogram("h", []float64{1})
	if r.Histogram("h", []float64{1, 2, 3}) != h {
		t.Error("Histogram not idempotent")
	}
}

func TestDeterministicStripsWallClock(t *testing.T) {
	r := NewRegistry()
	r.Counter("games_total").Add(10)
	r.Counter("phase_game_play_nanos").Add(123456)
	r.Gauge("ranks").Set(4)
	r.Gauge("uptime_seconds").Set(9)
	r.Histogram("phase_bcast_seconds", []float64{1e-3, 1}).Observe(0.5)
	r.Histogram("payload_bytes", []float64{8, 64}).Observe(16)

	d := r.Snapshot().Deterministic()
	if len(d.Counters) != 1 || d.Counters[0].Name != "games_total" {
		t.Fatalf("counters = %+v, want only games_total", d.Counters)
	}
	if len(d.Gauges) != 1 || d.Gauges[0].Name != "ranks" {
		t.Fatalf("gauges = %+v, want only ranks", d.Gauges)
	}
	if len(d.Histograms) != 2 {
		t.Fatalf("histograms = %+v, want 2", d.Histograms)
	}
	for _, h := range d.Histograms {
		switch h.Name {
		case "phase_bcast_seconds":
			if h.Sum != 0 || h.Counts != nil {
				t.Errorf("wall-clock histogram kept distribution: %+v", h)
			}
			if h.Count != 1 {
				t.Errorf("wall-clock histogram lost its observation count: %+v", h)
			}
		case "payload_bytes":
			if h.Sum != 16 || len(h.Counts) != 3 {
				t.Errorf("deterministic histogram mangled: %+v", h)
			}
		default:
			t.Errorf("unexpected histogram %s", h.Name)
		}
	}
}

func TestDeterministicRespectsLabels(t *testing.T) {
	// The unit suffix is on the base name; labels must not hide it.
	r := NewRegistry()
	r.Counter(Name("coll_nanos", "op", "bcast")).Add(5)
	d := r.Snapshot().Deterministic()
	if len(d.Counters) != 0 {
		t.Fatalf("labelled wall-clock counter survived: %+v", d.Counters)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("sent_total", "rank", "0")).Add(3)
	r.Counter(Name("sent_total", "rank", "1")).Add(4)
	r.Gauge("ranks").Set(2)
	h := r.Histogram(Name("lat_seconds", "rank", "0"), []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"# TYPE sent_total counter",
		`sent_total{rank="0"} 3`,
		`sent_total{rank="1"} 4`,
		"# TYPE ranks gauge",
		"ranks 2",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{rank="0",le="0.1"} 1`,
		`lat_seconds_bucket{rank="0",le="1"} 2`,
		`lat_seconds_bucket{rank="0",le="+Inf"} 3`,
		`lat_seconds_sum{rank="0"} 5.55`,
		`lat_seconds_count{rank="0"} 3`,
	}
	for _, line := range wantLines {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	if n := strings.Count(out, "# TYPE sent_total"); n != 1 {
		t.Errorf("TYPE header repeated %d times", n)
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Histogram("h", []float64{1}).Observe(2)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 1 {
		t.Fatalf("round trip lost counters: %+v", back)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Sum != 2 {
		t.Fatalf("round trip lost histograms: %+v", back)
	}
}
