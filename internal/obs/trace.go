// Package obs is NeutronStar-Go's stdlib-only observability substrate.
//
// The training path has one timing substrate (DESIGN.md §9): each worker owns
// one StageClock, every phase boundary is one Phase call, and the interval it
// closes is handed once to whichever sinks are attached — the flight
// recorder's per-worker log, from which each epoch's (worker, stage, layer)
// cells, barrier and critical path are computed (stage.go, critpath.go), and
// the span tracer (this file), whose Chrome trace-event export shows a run's
// epoch → layer → operator structure in chrome://tracing or Perfetto and
// which internal/experiments post-processes, with the fabric's delivery
// stamps, into Fig. 13's utilisation series. The tracer is also usable on its own: the serving path
// and the sampling baseline open their spans with Start.
//
// Beside it sit a metric registry with Prometheus and OpenMetrics text
// exposition and a time-series history (registry.go, gather.go, history.go),
// an opt-in debug server wiring /metrics, /healthz, /status, /epochs,
// /healthwatch and net/http/pprof to a running process (server.go), an
// anomaly watchdog: threshold rules over epoch records firing structured
// alerts and a health report (anomaly.go), and NewLogger, the log/slog
// constructor the CLIs share (logger.go).
//
// Every entry point is nil-safe: a nil *Tracer, *Span, *StageClock or
// *FlightRecorder makes every method a no-op, so instrumentation stays in
// place unconditionally.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span (layer index, byte count, …):
// an integer or a string. It holds its value unboxed so that building one
// never allocates — an instrumented hot path passes Attrs by value and pays
// nothing when no sink is attached.
type Attr struct {
	Key   string
	num   int64
	str   string
	isStr bool
}

// String builds a string attribute.
func String(key, v string) Attr { return Attr{Key: key, str: v, isStr: true} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, num: int64(v)} }

// Int64 builds an integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, num: v} }

// Value returns the attribute's value: an int64 or a string.
func (a Attr) Value() any {
	if a.isStr {
		return a.str
	}
	return a.num
}

// Span classes: what a span's worker was doing, for busy-time accounting
// (Fig. 13). Stage.Class maps the training path's stages onto compute and
// communication; the sampling baseline, which has no stages, opens
// ClassSample spans with Start.
const (
	// ClassNone marks a structural span — one that groups other spans (an
	// epoch, a layer, a ring step) and is never busy time.
	ClassNone = -1
	// ClassCompute is tensor compute: the paper's GPU utilisation.
	ClassCompute = 0
	// ClassComm is communication work — packing, sending, waiting,
	// unpacking; compute + comm is the CPU utilisation analogue.
	ClassComm = 1
	// ClassSample is neighbour sampling (the DistDGL-like baseline only).
	ClassSample = 2
)

// SpanData is one finished span. Start/End are offsets from the tracer's
// first event.
type SpanData struct {
	Worker int
	// Class is the span's busy class (ClassCompute, ClassComm, ClassSample)
	// or ClassNone for structural spans.
	Class int
	Name  string
	Start time.Duration
	End   time.Duration
	Attrs []Attr
}

// Duration returns the span length.
func (d SpanData) Duration() time.Duration { return d.End - d.Start }

// Attr returns the value of the named attribute, or nil.
func (d SpanData) Attr(key string) any {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

// Tracer accumulates finished spans, flow arrows and delivery stamps. The
// zero value is not usable; call NewTracer. A nil *Tracer is legal
// everywhere and records nothing. Its clock starts at the first event so
// trace timestamps are run-relative.
type Tracer struct {
	startOnce sync.Once
	start     time.Time

	mu         sync.Mutex
	spans      []SpanData
	flows      []FlowEvent
	deliveries []Delivery
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Now returns the offset since the tracer's first event, starting the clock
// on first use.
func (t *Tracer) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.offset(time.Now())
}

// offset converts an absolute time to this tracer's run-relative clock,
// starting the clock on first use. It is how a StageClock puts the intervals
// it timed itself — and the recorder its flow arrows — on the same timeline
// as spans opened with Start.
func (t *Tracer) offset(at time.Time) time.Duration {
	t.startOnce.Do(func() { t.start = time.Now() })
	return at.Sub(t.start)
}

// FlowEvent is one cross-worker arrow in the Chrome trace: a message that
// left FromWorker at At and was consumed on ToWorker at End. ID ties the
// start and finish halves together and must be unique per arrow (the flight
// recorder numbers its arrows with one counter).
type FlowEvent struct {
	ID         uint64
	Name       string
	FromWorker int
	At         time.Duration
	ToWorker   int
	End        time.Duration
}

// AddFlow records one cross-worker flow arrow.
func (t *Tracer) AddFlow(f FlowEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flows = append(t.flows, f)
	t.mu.Unlock()
}

// Flows copies all recorded flow events in insertion order.
func (t *Tracer) Flows() []FlowEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]FlowEvent, len(t.flows))
	copy(out, t.flows)
	return out
}

// Delivery is one message's arrival: the receiving worker, its wire bytes,
// and when, on the tracer's clock. Both fabrics stamp one per delivered
// message (comm.Fabric.arrive, comm.TCPFabric.readLoop); Fig. 13's network
// rate and received volume are read from them.
type Delivery struct {
	Worker int
	Bytes  int64
	At     time.Duration
}

// Received stamps n wire bytes arriving at worker now.
func (t *Tracer) Received(worker int, n int64) {
	if t == nil {
		return
	}
	at := t.Now()
	t.mu.Lock()
	t.deliveries = append(t.deliveries, Delivery{Worker: worker, Bytes: n, At: at})
	t.mu.Unlock()
}

// Deliveries copies all delivery stamps in arrival order.
func (t *Tracer) Deliveries() []Delivery {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Delivery, len(t.deliveries))
	copy(out, t.deliveries)
	return out
}

// Span is an open span; End finishes it.
type Span struct {
	tr     *Tracer
	worker int
	class  int
	name   string
	from   time.Duration
	attrs  []Attr
}

// Start opens a span on the given worker timeline. class classifies the
// span for busy-time accounting (ClassNone for structural spans).
func (t *Tracer) Start(worker, class int, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, worker: worker, class: class, name: name, from: t.Now(), attrs: attrs}
}

// End closes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	to := s.tr.Now()
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, SpanData{
		Worker: s.worker, Class: s.class, Name: s.name,
		Start: s.from, End: to, Attrs: s.attrs,
	})
	s.tr.mu.Unlock()
}

// Add records an already-finished span verbatim. It exists for synthetic
// spans with exact offsets — deterministic tests, or importing externally
// measured intervals into a trace.
func (t *Tracer) Add(d SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, d)
	t.mu.Unlock()
}

// Snapshot copies all finished spans in completion order.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// WriteChromeTrace exports every finished span in Chrome trace-event format
// (a JSON array loadable in chrome://tracing or Perfetto): one "M" metadata
// event naming each worker row via workerName ("worker N" when nil), one "X"
// complete event per span with its attributes as args, and an "s"/"f"
// flow-event pair per recorded FlowEvent (rendered as a cross-worker arrow).
// Timestamps are microseconds from the tracer's first event. Output always
// ends with a newline, including for a nil tracer (which writes an empty
// array).
func (t *Tracer) WriteChromeTrace(w io.Writer, workerName func(worker int) string) error {
	if workerName == nil {
		workerName = func(i int) string { return "worker " + strconv.Itoa(i) }
	}
	spans := t.Snapshot()
	flows := t.Flows()
	events := make([]map[string]any, 0, len(spans)+2*len(flows)+8)

	workers := map[int]bool{}
	for _, sp := range spans {
		workers[sp.Worker] = true
	}
	for _, f := range flows {
		workers[f.FromWorker] = true
		workers[f.ToWorker] = true
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		events = append(events, map[string]any{
			"name": "thread_name", "ph": "M", "pid": 0, "tid": id,
			"args": map[string]any{"name": workerName(id)},
		})
		events = append(events, map[string]any{
			"name": "thread_sort_index", "ph": "M", "pid": 0, "tid": id,
			"args": map[string]any{"sort_index": id},
		})
	}

	// A StageClock's group and its first interval start at the same instant
	// and its last interval ends with it: the longer span goes first so the
	// viewer nests the shorter inside, and a duration is the difference of the
	// two truncated endpoints, so that spans sharing an instant still share
	// it in whole microseconds and a child never outlasts its parent.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	for _, sp := range spans {
		ev := map[string]any{
			"name": sp.Name, "ph": "X",
			"ts":  float64(sp.Start.Microseconds()),
			"dur": float64(sp.End.Microseconds() - sp.Start.Microseconds()),
			"pid": 0, "tid": sp.Worker,
		}
		if len(sp.Attrs) > 0 {
			args := make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value()
			}
			ev["args"] = args
		}
		events = append(events, ev)
	}
	for _, f := range flows {
		// Clamp the start half to the timeline: a send stamped before the
		// tracer's first event would otherwise render off-screen.
		at := f.At
		if at < 0 {
			at = 0
		}
		end := f.End
		if end < at {
			end = at
		}
		events = append(events, map[string]any{
			"name": f.Name, "cat": "flow", "ph": "s", "id": f.ID,
			"ts": float64(at.Microseconds()), "pid": 0, "tid": f.FromWorker,
		})
		events = append(events, map[string]any{
			"name": f.Name, "cat": "flow", "ph": "f", "bp": "e", "id": f.ID,
			"ts": float64(end.Microseconds()), "pid": 0, "tid": f.ToWorker,
		})
	}
	return json.NewEncoder(w).Encode(events)
}
