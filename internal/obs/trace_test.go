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
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer recorded %d spans", len(got))
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
