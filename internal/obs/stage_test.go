package obs

import (
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestStageNamesStable(t *testing.T) {
	// benchmark/ reads stages by these names (engine.*_share metrics);
	// renaming one silently zeroes its metric there.
	want := []string{"forward", "backward", "dep_fetch_send", "dep_fetch_recv",
		"mirror_scatter", "grad_sync", "barrier", "checkpoint"}
	got := StageNames()
	if len(got) != len(want) {
		t.Fatalf("StageNames: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d: got %q, want %q", i, got[i], want[i])
		}
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage must stringify as unknown")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var rec *FlightRecorder
	rec.BeginEpoch(1, 2, 2)
	rec.AddTraffic(0, StageDepFetchSend, 1, 100, 1)
	rec.AddCheckpoint(time.Millisecond)
	rec.EndEpoch(time.Second, 0.5)
	if got := rec.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot: %v", got)
	}
	if len(rec.Snapshot()) != 0 {
		t.Fatal("nil recorder must report 0 epochs")
	}
	c := rec.Clock(0, nil)
	if c != nil {
		t.Fatal("nil recorder must hand out nil clocks")
	}
	c.Phase(StageForward, 1, "x") // must not panic
	c.End()
}

func TestFlightRecorderNoOpenEpoch(t *testing.T) {
	rec := NewFlightRecorder()
	// Attribution outside BeginEpoch/EndEpoch (e.g. inference traffic) is
	// dropped, not misfiled into a neighbouring epoch.
	rec.AddTraffic(0, StageDepFetchSend, 1, 999, 1)
	if rec.Clock(0, nil) != nil {
		t.Fatal("Clock must be nil with no open epoch")
	}
	rec.EndEpoch(time.Second, 0) // no-op
	if len(rec.Snapshot()) != 0 {
		t.Fatal("no record should exist")
	}
	rec.BeginEpoch(1, 1, 2)
	rec.AddTraffic(0, StageDepFetchSend, 1, 100, 1)
	rec.EndEpoch(time.Second, 0.25)
	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if got := recs[0].StageBytes(StageDepFetchSend.String()); got != 100 {
		t.Fatalf("dep_fetch_send bytes = %d, want 100 (pre-epoch traffic must not leak in)", got)
	}
	if recs[0].Loss != 0.25 || recs[0].Epoch != 1 || recs[0].Workers != 1 || recs[0].Layers != 2 {
		t.Fatalf("record header wrong: %+v", recs[0])
	}
}

func TestStageClockExclusiveAttribution(t *testing.T) {
	rec := NewFlightRecorder()
	rec.BeginEpoch(3, 1, 2)
	start := time.Now()
	sc := rec.Clock(0, nil)
	if sc == nil {
		t.Fatal("clock must be non-nil with an open epoch")
	}
	time.Sleep(10 * time.Millisecond)
	sc.Phase(StageBackward, 2, "tape_backward")
	time.Sleep(10 * time.Millisecond)
	sc.Phase(StageGradSync, 0, "allreduce")
	time.Sleep(5 * time.Millisecond)
	sc.End()
	span := time.Since(start).Seconds()
	rec.EndEpoch(time.Since(start), 0)

	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	r := &recs[0]
	var sum float64
	for _, c := range r.Cells {
		sum += c.Seconds
	}
	// The clock is gap-free: the stage sum must equal the clock's lifetime.
	// Allow 2% plus a small absolute slack for the instants outside the
	// clock's life (Clock() and End() calls themselves).
	if math.Abs(sum-span) > 0.02*span+time.Millisecond.Seconds() {
		t.Fatalf("stage sum %.6fs vs span %.6fs: gap too large", sum, span)
	}
	if r.StageSeconds("forward") < 0.009 {
		t.Fatalf("forward got %.6fs, want ≥ ~10ms", r.StageSeconds("forward"))
	}
	if r.StageSeconds("backward") < 0.009 {
		t.Fatalf("backward got %.6fs, want ≥ ~10ms", r.StageSeconds("backward"))
	}
	if r.StageSeconds("grad_sync") < 0.004 {
		t.Fatalf("grad_sync got %.6fs, want ≥ ~5ms", r.StageSeconds("grad_sync"))
	}
	if got := r.LayerStageSeconds("backward", 2); got < 0.009 {
		t.Fatalf("backward layer 2 got %.6fs", got)
	}
}

// TestStageClockSinksAgree drives one clock with both sinks attached and
// checks the views of its interval stream against each other: each interval
// is one IntervalEvent in the worker's log, summed into its cell, and one
// span classed by its stage, all from the same clock reads — so the sums
// agree to the nanosecond — while groups share their boundaries with the
// intervals they hold and a lane reaches the tracer only.
func TestStageClockSinksAgree(t *testing.T) {
	rec := NewFlightRecorder()
	tr := NewTracer()
	rec.BeginEpoch(1, 1, 2)
	sc := rec.Clock(0, tr)
	sc.Group("epoch", Int("epoch", 1), String("mode", "hybrid"))
	sc.Phase(StageForward, 1, "tape_setup", Int("layer", 1))
	sc.Group("layer", Int("layer", 1))
	sc.Phase(StageDepFetchRecv, 1, "gather_dep_nbr", Int("layer", 1), Int("rows", 7))
	sc.SetAttrs(Int("bytes", 4096))
	lane := sc.Lane()
	lane.Phase(StageDepFetchSend, 1, "send_dep_nbr", Int("layer", 1), Int("peer", 0))
	time.Sleep(time.Millisecond)
	lane.End()
	sc.Phase(StageForward, 1, "compute_owned", Int("layer", 1))
	sc.EndGroup()
	sc.Phase(StageBackward, 2, "loss_backward")
	sc.Phase(StageGradSync, 0, "allreduce")
	busy := sc.End()
	rec.EndEpoch(busy, 0)

	r := rec.Snapshot()[0]
	var cellNanos int64
	for _, c := range r.Cells {
		cellNanos += int64(math.Round(c.Seconds * 1e9))
	}
	if cellNanos != int64(busy) {
		t.Fatalf("cells hold %d ns, the clock ran for %d", cellNanos, int64(busy))
	}
	if got := r.StageSeconds("dep_fetch_send"); got != 0 {
		t.Fatalf("the lane charged %.9fs to a cell", got)
	}

	byName := map[string]SpanData{}
	var spanNanos int64
	for _, sp := range tr.Snapshot() {
		byName[sp.Name] = sp
		if sp.Class != ClassNone && sp.Name != "send_dep_nbr" {
			spanNanos += int64(sp.Duration())
		}
	}
	if spanNanos != cellNanos {
		t.Fatalf("main-lane spans hold %d ns, cells %d", spanNanos, cellNanos)
	}
	for name, class := range map[string]int{
		"epoch_setup": ClassCompute, "tape_setup": ClassCompute, "gather_dep_nbr": ClassComm,
		"send_dep_nbr": ClassComm, "compute_owned": ClassCompute, "loss_backward": ClassCompute,
		"allreduce": ClassComm, "epoch": ClassNone, "layer": ClassNone,
	} {
		sp, ok := byName[name]
		if !ok || sp.Class != class {
			t.Fatalf("span %q: present %v, class %d, want %d", name, ok, sp.Class, class)
		}
	}
	if g := byName["gather_dep_nbr"]; g.Attr("rows") != int64(7) || g.Attr("bytes") != int64(4096) {
		t.Fatalf("gather attrs = %v", g.Attrs)
	}
	if e := byName["epoch"]; e.Attr("mode") != "hybrid" ||
		e.Start != byName["epoch_setup"].Start || e.End != byName["allreduce"].End {
		t.Fatalf("epoch group %+v does not span the clock's life", e)
	}
	if l := byName["layer"]; l.Start != byName["tape_setup"].Start || l.End != byName["compute_owned"].End {
		t.Fatalf("layer group %+v does not share its intervals' boundaries", l)
	}
	if send := byName["send_dep_nbr"]; send.Duration() < time.Millisecond {
		t.Fatalf("lane span %+v lost its time", send)
	}
}

// TestPhaseOffPathAllocFree pins what "the disabled path is free" means: with
// no sink attached (a nil clock), and with only the always-on worker log in
// the steady state (its buffer kept from an earlier epoch), a phase boundary
// carrying attributes — and the group and attribute calls around it — reach
// the heap zero times. Gated behind NS_PERF_ALLOCS like the other allocation
// budgets (the race runtime allocates on its own).
func TestPhaseOffPathAllocFree(t *testing.T) {
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	rec := NewFlightRecorder()
	rec.BeginEpoch(1, 1, 2)
	warm := rec.Clock(0, nil)
	for i := 0; i < 2000; i++ {
		warm.Phase(StageForward, 1, "warm")
	}
	warm.End()
	rec.EndEpoch(time.Millisecond, 0)
	rec.BeginEpoch(2, 1, 2)
	for name, sc := range map[string]*StageClock{"nil clock": nil, "log-only clock": rec.Clock(0, nil)} {
		layer, rows := 2, 1000 // not constants: boxing them would allocate
		n := testing.AllocsPerRun(1000, func() {
			sc.Phase(StageDepFetchRecv, layer, "gather_dep_nbr", Int("layer", layer), Int("rows", rows))
			sc.SetAttrs(Int("bytes", 4*rows))
			sc.Group("layer", Int("layer", layer))
			sc.EndGroup()
			rows++
		})
		if n != 0 {
			t.Fatalf("%s: a phase boundary allocated %v times, want 0", name, n)
		}
	}
}

func TestStageClockLayerClamp(t *testing.T) {
	rec := NewFlightRecorder()
	rec.BeginEpoch(1, 1, 2)
	// Out-of-range layers clamp to the edge cells instead of corrupting
	// neighbours or panicking (defensive: protocol tags like the param
	// server's phase field must not index out of the layer range).
	rec.AddTraffic(0, StageGradSync, 99, 10, 1)
	rec.AddTraffic(0, StageGradSync, -5, 10, 1)
	rec.AddTraffic(-1, StageGradSync, 0, 10, 1) // bad worker: dropped
	rec.AddTraffic(7, StageGradSync, 0, 10, 1)  // bad worker: dropped
	rec.EndEpoch(time.Second, 0)
	r := rec.Snapshot()[0]
	if got := r.StageBytes("grad_sync"); got != 20 {
		t.Fatalf("grad_sync bytes = %d, want 20", got)
	}
	if got := r.LayerStageSeconds("grad_sync", 0); got != 0 {
		t.Fatalf("unexpected time cells: %v", got)
	}
}

// TestFlightRecorderConcurrent is the race-detector test: per-worker clocks,
// cross-goroutine traffic attribution, snapshots and epoch turnover all run
// concurrently, as they do in the engine.
func TestFlightRecorderConcurrent(t *testing.T) {
	rec := NewFlightRecorder()
	const workers, epochs = 4, 5
	var snapWG sync.WaitGroup
	for e := 1; e <= epochs; e++ {
		rec.BeginEpoch(e, workers, 2)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := rec.Clock(w, nil)
				for i := 0; i < 200; i++ {
					sc.Phase(StageForward, 1, "compute_owned")
					rec.AddTraffic(w, StageDepFetchSend, 1, 64, 1)
					sc.Phase(StageDepFetchRecv, 2, "gather_dep_nbr")
					rec.AddTraffic((w+1)%workers, StageDepFetchRecv, 2, 64, 1)
					sc.Phase(StageBackward, 1, "tape_backward")
				}
				sc.End()
			}(w)
		}
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			_ = rec.Snapshot()
			rec.AddCheckpoint(time.Microsecond)
		}()
		wg.Wait()
		rec.EndEpoch(time.Millisecond, float64(e))
	}
	snapWG.Wait()
	recs := rec.Snapshot()
	if len(recs) != epochs {
		t.Fatalf("got %d records, want %d", len(recs), epochs)
	}
	for _, r := range recs {
		wantMsgs := int64(workers * 200)
		if got := r.StageMsgs("dep_fetch_send"); got != wantMsgs {
			t.Fatalf("epoch %d: send msgs %d, want %d", r.Epoch, got, wantMsgs)
		}
		if got := r.StageBytes("dep_fetch_recv"); got != wantMsgs*64 {
			t.Fatalf("epoch %d: recv bytes %d, want %d", r.Epoch, got, wantMsgs*64)
		}
		if r.TotalBytes() != 2*wantMsgs*64 {
			t.Fatalf("epoch %d: total bytes %d", r.Epoch, r.TotalBytes())
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Fatalf("nil histogram quantile = %v", got)
	}
	reg := NewRegistry()
	h := reg.Histogram("ns_test_quantile", "", []float64{10, 20, 40})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
	// 10 samples in (0,10], 10 in (10,20], none in (20,40].
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	// Median: rank 10 lands exactly at the boundary of bucket 1 → 10.
	if got := h.Quantile(0.5); math.Abs(got-10) > 1e-9 {
		t.Fatalf("p50 = %v, want 10", got)
	}
	// p75: rank 15, 5 into bucket (10,20] of count 10 → 15.
	if got := h.Quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p75 = %v, want 15", got)
	}
	// p25: rank 5, halfway through bucket (0,10] → 5.
	if got := h.Quantile(0.25); math.Abs(got-5) > 1e-9 {
		t.Fatalf("p25 = %v, want 5", got)
	}
	if got := h.Quantile(1); math.Abs(got-20) > 1e-9 {
		t.Fatalf("p100 = %v, want 20 (top non-empty bucket bound)", got)
	}
	// Clamping.
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Fatalf("p<0 must clamp to p=0: %v vs %v", got, h.Quantile(0))
	}
	// A sample beyond the last finite bound: quantiles in the +Inf bucket
	// report the largest finite bound.
	h.Observe(1e9)
	if got := h.Quantile(1); math.Abs(got-40) > 1e-9 {
		t.Fatalf("p100 with +Inf sample = %v, want 40", got)
	}
}

func TestHistogramQuantileNoFiniteBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ns_test_quantile_inf", "", nil)
	h.Observe(3)
	h.Observe(5)
	// Only the +Inf bucket exists: the mean is the only defensible estimate.
	if got := h.Quantile(0.5); math.Abs(got-4) > 1e-9 {
		t.Fatalf("quantile with no finite buckets = %v, want mean 4", got)
	}
}
