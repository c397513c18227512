package engine

import (
	"testing"
	"time"

	"neutronstar/internal/obs"
)

// TestEpochSpanHierarchy checks that a hybrid training epoch produces the
// structural epoch → layer → op span hierarchy: structural spans carry
// ClassNone (so utilisation series are unaffected), op spans carry their
// busy class and the attributes the trace viewer groups by.
func TestEpochSpanHierarchy(t *testing.T) {
	ds := testDataset(t, 120, 6, 3)
	tr := obs.NewTracer()
	// A forced half-and-half split keeps the plan — and with it which spans
	// exist — independent of what the cost probe measured on this host.
	eng, err := newTuned(ds, Options{Workers: 2, Mode: Hybrid, Tracer: tr}, forcedRatio(0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	before := len(tr.Snapshot())
	eng.RunEpoch()

	spans := tr.Snapshot()
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
			if sp.Worker == lg.Worker && sp.Class == obs.ClassCompute &&
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
		if sp.Class != obs.ClassComm {
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
		if sp.Class != obs.ClassComm {
			t.Fatalf("gather span class = %d", sp.Class)
		}
	}
	// Every span the epoch added is structural or compute / comm: the
	// training path has no other busy class.
	var busy time.Duration
	for _, sp := range spans[before:] {
		switch sp.Class {
		case obs.ClassCompute, obs.ClassComm:
			busy += sp.Duration()
		case obs.ClassNone:
		default:
			t.Fatalf("span %q has class %d", sp.Name, sp.Class)
		}
	}
	if busy <= 0 {
		t.Fatal("busy accounting did not advance")
	}
}
