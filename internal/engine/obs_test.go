package engine

import (
	"testing"

	"neutronstar/internal/metrics"
	"neutronstar/internal/obs"
)

// TestEpochSpanHierarchy checks that a hybrid training epoch produces the
// structural epoch → layer → op span hierarchy: structural spans carry
// ClassNone (so utilisation series are unaffected), op spans carry their
// metrics.Kind and the attributes the trace viewer groups by.
func TestEpochSpanHierarchy(t *testing.T) {
	ds := testDataset(t, 120, 6, 3)
	coll := metrics.NewCollector()
	// A forced half-and-half split keeps the plan — and with it which spans
	// exist — independent of what the cost probe measured on this host.
	eng, err := NewEngine(ds, Options{
		Workers: 2, Mode: Hybrid, Collector: coll,
		ForceRatio: true, CacheRatio: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	busyBefore := coll.Busy(metrics.Compute) + coll.Busy(metrics.Comm)
	eng.RunEpoch()

	spans := coll.Tracer().Snapshot()
	byName := map[string][]obs.SpanData{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}

	epochs := byName["epoch"]
	if len(epochs) != 2 {
		t.Fatalf("epoch groups = %d, want one per worker", len(epochs))
	}
	for _, ep := range epochs {
		if ep.Class != obs.ClassNone {
			t.Fatalf("epoch span class = %d, want ClassNone", ep.Class)
		}
		if ep.Attr("mode") != string(Hybrid) {
			t.Fatalf("epoch mode attr = %v", ep.Attr("mode"))
		}
	}
	layers := byName["layer"]
	if len(layers) != 4 { // 2 workers x 2 layers
		t.Fatalf("layer groups = %d", len(layers))
	}
	for _, lg := range layers {
		if lg.Class != obs.ClassNone {
			t.Fatalf("layer span class = %d", lg.Class)
		}
		l, ok := lg.Attr("layer").(int64)
		if !ok || l < 1 || l > 2 {
			t.Fatalf("layer attr = %v", lg.Attr("layer"))
		}
		// The layer group must contain at least one compute op within its
		// window on the same worker row (time-containment nesting).
		found := false
		for _, sp := range spans {
			if sp.Worker == lg.Worker && sp.Class == int(metrics.Compute) &&
				sp.Start >= lg.Start && sp.End <= lg.End {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("layer group on worker %d contains no compute span", lg.Worker)
		}
	}
	if len(byName["compute_owned"]) == 0 {
		t.Fatal("no compute_owned spans")
	}
	if len(byName["allreduce"]) != 2 {
		t.Fatalf("allreduce spans = %d", len(byName["allreduce"]))
	}
	for _, sp := range byName["allreduce"] {
		if sp.Class != int(metrics.Comm) {
			t.Fatalf("allreduce class = %d", sp.Class)
		}
		if b, ok := sp.Attr("bytes").(int64); !ok || b <= 0 {
			t.Fatalf("allreduce bytes attr = %v", sp.Attr("bytes"))
		}
	}
	// Cross-worker communication happened, so dep-gather spans must carry a
	// positive byte attribute on at least one worker.
	gathers := byName["recv_chunk"]
	if len(gathers) == 0 {
		t.Fatal("no dependency-gather spans recorded")
	}
	for _, sp := range gathers {
		if sp.Class != int(metrics.Comm) {
			t.Fatalf("gather span class = %d", sp.Class)
		}
	}
	if coll.Busy(metrics.Compute)+coll.Busy(metrics.Comm) <= busyBefore {
		t.Fatal("busy accounting did not advance")
	}
	// Structural groups must not inflate the utilisation series: total busy
	// time equals the sum over class-bearing spans only.
	var classed int64
	for _, sp := range spans {
		if sp.Class >= 0 {
			classed += int64(sp.Duration())
		}
	}
	total := int64(coll.Busy(metrics.Compute) + coll.Busy(metrics.Comm) + coll.Busy(metrics.Sample))
	if classed != total {
		t.Fatalf("busy mismatch: classed spans %d vs Busy %d", classed, total)
	}
}
