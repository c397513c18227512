package experiments

import (
	"sync"
	"testing"
	"time"

	"neutronstar/internal/obs"
)

func TestNilTracerViewsAreEmpty(t *testing.T) {
	var tr *obs.Tracer
	tr.Start(0, obs.ClassCompute, "compute").End()
	tr.Received(0, 100)
	if busy(tr, obs.ClassCompute) != 0 || recvBytes(tr) != 0 {
		t.Fatal("nil tracer recorded something")
	}
	if s := buildSeries(tr, time.Millisecond, 4); s.numBuckets() != 0 || s.meanUtil(obs.ClassCompute) != 0 {
		t.Fatal("nil tracer produced buckets")
	}
}

func TestStartRecordsBusyTime(t *testing.T) {
	tr := obs.NewTracer()
	sp := tr.Start(0, obs.ClassCompute, "compute")
	time.Sleep(20 * time.Millisecond)
	sp.End()
	if b := busy(tr, obs.ClassCompute); b < 15*time.Millisecond || b > 200*time.Millisecond {
		t.Fatalf("busy = %v", b)
	}
	if busy(tr, obs.ClassComm) != 0 {
		t.Fatal("comm busy should be zero")
	}
}

func TestBuildSeriesUtilisation(t *testing.T) {
	tr := obs.NewTracer()
	// Worker 0 computes ~30ms, worker 1 communicates ~30ms concurrently.
	var wg sync.WaitGroup
	for w, class := range []int{obs.ClassCompute, obs.ClassComm} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.Start(w, class, "busy")
			time.Sleep(30 * time.Millisecond)
			sp.End()
		}()
	}
	wg.Wait()
	tr.Received(1, 1000)
	s := buildSeries(tr, 10*time.Millisecond, 2)
	if s.numBuckets() < 3 {
		t.Fatalf("buckets = %d", s.numBuckets())
	}
	// With 2 workers and one computing, mean compute util in the busy window
	// should approach 0.5.
	if u := s.meanUtil(obs.ClassCompute); u <= 0.1 || u > 0.6 {
		t.Fatalf("mean compute util = %v", u)
	}
	if u := s.meanUtil(obs.ClassComm); u <= 0.1 || u > 0.6 {
		t.Fatalf("mean comm util = %v", u)
	}
	if s.peakNetRate() <= 0 || recvBytes(tr) != 1000 {
		t.Fatal("no network rate recorded")
	}
}

func TestSmoothnessCV(t *testing.T) {
	tr := obs.NewTracer()
	tr.Received(0, 100)
	// Single bucket: CV undefined, must be 0.
	if cv := buildSeries(tr, time.Millisecond, 1).smoothnessCV(); cv != 0 {
		t.Fatalf("single-sample CV = %v, want 0", cv)
	}
	tr.Add(obs.SpanData{Class: obs.ClassCompute, End: 3 * time.Millisecond})
	s := buildSeries(tr, time.Millisecond, 1)
	s.netBytesPerSec = []float64{1, 3, 0, 0}
	if cv := s.smoothnessCV(); cv != 0.5 {
		t.Fatalf("CV of {1, 3} = %v, want 0.5 (zero buckets skipped)", cv)
	}
}

// TestSpanAndGroup: a stage clock's intervals arrive on the tracer classed by
// Stage.Class, which busy and buildSeries read, and structural groups never
// count as busy time.
func TestSpanAndGroup(t *testing.T) {
	tr := obs.NewTracer()
	var noRecorder *obs.FlightRecorder
	sc := noRecorder.Clock(0, tr)
	sc.Group("epoch", obs.Int("epoch", 1))
	sc.Phase(obs.StageForward, 2, "matmul", obs.Int("layer", 2))
	time.Sleep(2 * time.Millisecond)
	sc.Phase(obs.StageGradSync, 0, "allreduce")
	g := tr.Start(0, obs.ClassNone, "ring_step", obs.Int("step", 0))
	time.Sleep(time.Millisecond)
	g.End()
	sc.End()
	compute, comm := busy(tr, obs.ClassCompute), busy(tr, obs.ClassComm)
	if compute < 2*time.Millisecond || comm < time.Millisecond {
		t.Fatalf("busy time missing: compute %v, comm %v", compute, comm)
	}
	byName := map[string]obs.SpanData{}
	for _, sp := range tr.Snapshot() {
		byName[sp.Name] = sp
	}
	if len(byName) != 5 { // epoch_setup, matmul, allreduce + the two groups
		t.Fatalf("spans = %+v", byName)
	}
	if got := byName["epoch_setup"].Duration() + byName["matmul"].Duration(); got != compute {
		t.Fatalf("busy(compute) = %v, compute spans hold %v", compute, got)
	}
	if got := byName["allreduce"].Duration(); got != comm {
		t.Fatalf("busy(comm) = %v, the allreduce span holds %v", comm, got)
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		want := obs.ClassComm
		switch s {
		case obs.StageForward, obs.StageBackward:
			want = obs.ClassCompute
		case obs.StageBarrier, obs.StageCheckpoint:
			want = obs.ClassNone
		}
		if s.Class() != want {
			t.Fatalf("stage %v is class %d, want %d", s, s.Class(), want)
		}
	}
}

// addSynthetic injects an exact interval so bucket math is deterministic.
func addSynthetic(tr *obs.Tracer, w, class int, start, end time.Duration) {
	tr.Add(obs.SpanData{Worker: w, Class: class, Name: "busy", Start: start, End: end})
}

func TestBuildSeriesEmptyTracer(t *testing.T) {
	s := buildSeries(obs.NewTracer(), 10*time.Millisecond, 4)
	if s.numBuckets() != 1 {
		t.Fatalf("empty tracer buckets = %d", s.numBuckets())
	}
	for class := 0; class < numClasses; class++ {
		if s.meanUtil(class) != 0 {
			t.Fatalf("class %d util nonzero", class)
		}
	}
	if s.peakNetRate() != 0 || s.smoothnessCV() != 0 {
		t.Fatal("empty tracer reported rates")
	}
}

func TestBuildSeriesSpanningManyBuckets(t *testing.T) {
	tr := obs.NewTracer()
	// One interval covering [5ms, 35ms) across 10ms buckets: partial first
	// and last buckets, fully-covered middle buckets.
	addSynthetic(tr, 0, obs.ClassCompute, 5*time.Millisecond, 35*time.Millisecond)
	s := buildSeries(tr, 10*time.Millisecond, 1)
	if s.numBuckets() != 4 {
		t.Fatalf("buckets = %d", s.numBuckets())
	}
	for b, w := range []float64{0.5, 1, 1, 0.5} {
		if got := s.util[obs.ClassCompute][b]; got < w-1e-9 || got > w+1e-9 {
			t.Fatalf("bucket %d util = %v want %v", b, got, w)
		}
	}
}

func TestBuildSeriesZeroDurationDropped(t *testing.T) {
	tr := obs.NewTracer()
	// A zero-duration interval extends the series but contributes no busy
	// time (hi <= lo in every bucket).
	addSynthetic(tr, 0, obs.ClassCompute, 25*time.Millisecond, 25*time.Millisecond)
	s := buildSeries(tr, 10*time.Millisecond, 1)
	if s.numBuckets() != 3 {
		t.Fatalf("buckets = %d", s.numBuckets())
	}
	for b := 0; b < s.numBuckets(); b++ {
		if s.util[obs.ClassCompute][b] != 0 {
			t.Fatalf("zero-duration interval counted in bucket %d", b)
		}
	}
}

func TestBuildSeriesIgnoresStructuralSpans(t *testing.T) {
	tr := obs.NewTracer()
	addSynthetic(tr, 0, obs.ClassCompute, 0, 10*time.Millisecond)
	// A structural epoch group covering the whole run must not alter the
	// utilisation series or busy totals.
	tr.Add(obs.SpanData{Worker: 0, Class: obs.ClassNone, Name: "epoch", Start: 0, End: 10 * time.Millisecond})
	s := buildSeries(tr, 10*time.Millisecond, 1)
	if got := s.util[obs.ClassCompute][0]; got < 1-1e-9 || got > 1+1e-9 {
		t.Fatalf("compute util = %v", got)
	}
	if b := busy(tr, obs.ClassCompute); b != 10*time.Millisecond {
		t.Fatalf("busy = %v", b)
	}
}
