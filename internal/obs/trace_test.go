package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(0, ClassNone, "root")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.End()
	tr.Received(1, 100)
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer recorded %d spans", len(got))
	}
	if got := tr.Deliveries(); got != nil {
		t.Fatalf("nil tracer recorded %d deliveries", len(got))
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("nil trace = %q, want %q", buf.String(), "[]\n")
	}
}

func TestSpanNestingAndAttrs(t *testing.T) {
	tr := NewTracer()
	epoch := tr.Start(1, ClassNone, "epoch", Int("epoch", 3), String("mode", "hybrid"))
	layer := tr.Start(1, ClassNone, "layer[1]", Int("layer", 1))
	op := tr.Start(1, 0, "gather_dep_nbr", Int64("bytes", 4096))
	op.End()
	layer.End()
	epoch.End()

	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	// Completion order: innermost first.
	if spans[0].Name != "gather_dep_nbr" || spans[2].Name != "epoch" {
		t.Fatalf("order wrong: %v %v %v", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[0].Attr("bytes") != int64(4096) {
		t.Fatalf("bytes attr = %v", spans[0].Attr("bytes"))
	}
	if spans[2].Attr("mode") != "hybrid" || spans[2].Attr("epoch") != int64(3) {
		t.Fatalf("epoch attrs = %v", spans[2].Attrs)
	}
	if spans[2].Attr("missing") != nil {
		t.Fatal("missing attr should be nil")
	}
	// Time containment: child within parent.
	if spans[0].Start < spans[2].Start || spans[0].End > spans[2].End {
		t.Fatal("child span not contained in parent")
	}
	for _, sp := range spans {
		if sp.Worker != 1 {
			t.Fatalf("worker = %d", sp.Worker)
		}
	}
	if spans[1].Class != ClassNone || spans[0].Class != 0 {
		t.Fatalf("classes: %d %d", spans[1].Class, spans[0].Class)
	}
}

func TestTracerAddSynthetic(t *testing.T) {
	tr := NewTracer()
	tr.Add(SpanData{Worker: 2, Class: 1, Name: "x", Start: 10 * time.Millisecond, End: 30 * time.Millisecond})
	spans := tr.Snapshot()
	if len(spans) != 1 || spans[0].Duration() != 20*time.Millisecond {
		t.Fatalf("synthetic span %+v", spans)
	}
}

func TestWriteChromeTraceMetadataAndEvents(t *testing.T) {
	tr := NewTracer()
	tr.Add(SpanData{Worker: 1, Class: 0, Name: "compute", Start: 0, End: 2 * time.Millisecond,
		Attrs: []Attr{Int("layer", 2)}})
	tr.Add(SpanData{Worker: 0, Class: ClassNone, Name: "epoch", Start: 0, End: 5 * time.Millisecond})

	var buf bytes.Buffer
	err := tr.WriteChromeTrace(&buf, func(w int) string { return "worker " + string(rune('0'+w)) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatal("trace output must end with a newline")
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 workers × (thread_name + thread_sort_index) + 2 spans.
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
	names := map[float64]string{}
	for _, ev := range events {
		if ev["ph"] == "M" && ev["name"] == "thread_name" {
			names[ev["tid"].(float64)] = ev["args"].(map[string]any)["name"].(string)
		}
	}
	if names[0] != "worker 0" || names[1] != "worker 1" {
		t.Fatalf("thread names = %v", names)
	}
	var sawCompute bool
	for _, ev := range events {
		if ev["ph"] == "X" && ev["name"] == "compute" {
			sawCompute = true
			if ev["dur"].(float64) != 2000 {
				t.Fatalf("dur = %v", ev["dur"])
			}
			if ev["args"].(map[string]any)["layer"].(float64) != 2 {
				t.Fatalf("args = %v", ev["args"])
			}
		}
	}
	if !sawCompute {
		t.Fatal("compute event missing")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Start(w, 0, "op", Int("i", i))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if n := len(tr.Snapshot()); n != 800 {
		t.Fatalf("spans = %d", n)
	}
}

// TestTracerConcurrentDeliveries: workers opening compute and comm spans while
// stamping deliveries lose neither spans nor stamps, and every stamp keeps its
// bytes.
func TestTracerConcurrentDeliveries(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Start(w, i%2, "op")
				tr.Received(w, 1)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if n := len(tr.Snapshot()); n != 400 {
		t.Fatalf("spans = %d", n)
	}
	ds := tr.Deliveries()
	var total int64
	for _, d := range ds {
		total += d.Bytes
	}
	if len(ds) != 400 || total != 400 {
		t.Fatalf("deliveries = %d carrying %d bytes", len(ds), total)
	}
}

// TestTracerDeliveryStamps: a stamp keeps its receiver and bytes, in arrival
// order, on the clock spans use.
func TestTracerDeliveryStamps(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start(0, ClassComm, "recv")
	tr.Received(2, 10)
	tr.Received(0, 5)
	sp.End()
	ds := tr.Deliveries()
	if len(ds) != 2 || ds[0].Worker != 2 || ds[0].Bytes != 10 || ds[1].Worker != 0 || ds[1].Bytes != 5 {
		t.Fatalf("deliveries = %+v", ds)
	}
	span := tr.Snapshot()[0]
	if ds[0].At < span.Start || ds[1].At < ds[0].At || ds[1].At > span.End {
		t.Fatalf("stamps %+v are not on the span's clock %+v", ds, span)
	}
	ds[0].Bytes = 99
	if tr.Deliveries()[0].Bytes != 10 {
		t.Fatal("Deliveries returned the tracer's own slice")
	}
}

// TestWriteChromeTraceDefaultWorkerNames: a nil name function names each
// worker row "worker N".
func TestWriteChromeTraceDefaultWorkerNames(t *testing.T) {
	tr := NewTracer()
	tr.Add(SpanData{Worker: 12, Class: ClassComm, Name: "comm", End: time.Millisecond})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(events) != 3 || events[0]["name"] != "thread_name" ||
		events[0]["args"].(map[string]any)["name"] != "worker 12" {
		t.Fatalf("events = %v", events)
	}
}
