package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the system.
// Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Count is the number of identical calls the span covers when one span
	// per call would cost more than the call (ladder rungs, request batches).
	Count int `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

// start opens a span under parent (nil for a root).
func (t *tracer) start(name string, parent *openSpan) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	// Reserve the id now so children opened before end can name their parent.
	t.spans = append(t.spans, span{})
	id := len(t.spans)
	t.mu.Unlock()
	o := &openSpan{t: t, id: id, name: name, start: time.Now()}
	if parent != nil {
		o.parent = parent.id
	}
	return o
}

func (o *openSpan) end() { o.endCount(0) }

// endCount closes the span, noting that it covered count identical calls.
func (o *openSpan) endCount(count int) {
	if o == nil {
		return
	}
	now := time.Now()
	t := o.t
	t.mu.Lock()
	t.spans[o.id-1] = span{
		ID: o.id, Parent: o.parent, Workload: t.workload, Name: o.name,
		StartNS: o.start.Sub(t.origin).Nanoseconds(),
		EndNS:   now.Sub(t.origin).Nanoseconds(),
		Count:   count,
	}
	t.mu.Unlock()
}

// write stores the spans as out/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
