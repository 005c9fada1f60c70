package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them once, at
// the end, as Chrome trace-event JSON (Perfetto and chrome://tracing open
// it). A nil tracer records nothing, so untraced runs pay no tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call across a layer boundary. Lane groups spans onto
// one track (a client, a rank, the benchmark's main loop); Job is shared by
// every span of one job; Parent is the ID of the span that caused it (0 for
// none).
type span struct {
	ID, Parent int
	Name, Cat  string
	Lane       int
	Job        string
	Start, End time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a top-level span and returns the function that closes it.
func (t *tracer) begin(name, cat string, lane int, job string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Cat: cat, Lane: lane, Job: job, Start: time.Now()})
	t.mu.Unlock()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// record adds a span whose bounds were observed elsewhere (a job's queue
// wait, seen as the gap between two events) and returns its ID.
func (t *tracer) record(name, cat string, lane int, job string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cat: cat, Lane: lane, Job: job, Start: start, End: end})
	return id
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as {"traceEvents": [...]} complete ("X") events
// with microsecond timestamps relative to the tracer's creation. Spans never
// closed are dropped.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End.IsZero() {
			continue
		}
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Job != "" {
			args["job"] = s.Job
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS:  float64(s.Start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Lane, Args: args,
		})
	}
	t.mu.Unlock()
	body, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
