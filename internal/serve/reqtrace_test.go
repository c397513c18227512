package serve

import (
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// TestStageTimingSumsToTotal is the stage-partition contract: the four
// additive stages are carved from the same clock stamps as the end-to-end
// pipeline latency, so their sum must land within 10% of Total on every
// request (exactly equal but for the non-negative clamp on extract).
func TestStageTimingSumsToTotal(t *testing.T) {
	ds := testDataset(t, 120, 41)
	s := newTestServer(t, ds, NewStatic(testModel(ds, nn.GCN, 42)), 1<<20)

	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		res, err := s.Query(&Request{Verts: []int32{int32(i), int32(i + 30), int32(i + 60)}})
		if err != nil {
			t.Fatal(err)
		}
		tm := res.Timing
		if tm.Total <= 0 {
			t.Fatalf("request %d: non-positive total %v", i, tm.Total)
		}
		sum := tm.StageSum()
		diff := sum - tm.Total
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.10*float64(tm.Total) {
			t.Fatalf("request %d: stages %v sum to %v, total %v (off by %v)",
				i, tm, sum, tm.Total, diff)
		}
		if tm.TraceID == 0 {
			t.Fatalf("request %d: zero trace id", i)
		}
		if seen[tm.TraceID] {
			t.Fatalf("request %d: duplicate trace id %016x", i, tm.TraceID)
		}
		seen[tm.TraceID] = true
		if len(tm.TraceIDHex()) != 16 {
			t.Fatalf("trace id hex %q not 16 chars", tm.TraceIDHex())
		}
	}
}

// TestServerTimingHeader asserts every query response carries the trace
// headers and that the Server-Timing entries round-trip through the parser
// with the same additive-stage property the struct promises.
func TestServerTimingHeader(t *testing.T) {
	ds := testDataset(t, 80, 43)
	s := newTestServer(t, ds, NewStatic(testModel(ds, nn.GCN, 44)), 1<<20)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/predict", Request{Verts: []int32{3, 12}}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if id := resp.Header.Get("X-NS-Trace-Id"); len(id) != 16 {
		t.Fatalf("X-NS-Trace-Id = %q", id)
	}
	st := resp.Header.Get("Server-Timing")
	if st == "" {
		t.Fatal("no Server-Timing header")
	}
	timing := ParseServerTiming(st)
	var sum time.Duration
	for _, stage := range []string{StageQueue, StageCache, StageExtract, StageCompute} {
		d, ok := timing[stage]
		if !ok {
			t.Fatalf("stage %q missing from %q", stage, st)
		}
		sum += d
	}
	total, ok := timing[StageTotal]
	if !ok || total <= 0 {
		t.Fatalf("total missing or zero in %q", st)
	}
	diff := sum - total
	if diff < 0 {
		diff = -diff
	}
	// The header rounds each stage to 1µs, so allow rounding slack on top of
	// the 10% contract.
	if slack := total/10 + 5*time.Microsecond; diff > slack {
		t.Fatalf("header stages sum to %v, total %v (off by %v > %v)", sum, total, diff, slack)
	}

	// A failed request carries no timing headers.
	bad := postJSON(t, ts.URL+"/predict", Request{Verts: []int32{9999}}, nil)
	if bad.Header.Get("Server-Timing") != "" || bad.Header.Get("X-NS-Trace-Id") != "" {
		t.Fatal("error response carries timing headers")
	}
}

func TestParseServerTiming(t *testing.T) {
	got := ParseServerTiming(`queue;dur=1.500, compute;dur=0.25, weird, broken;dur=x`)
	if len(got) != 2 {
		t.Fatalf("parsed %v", got)
	}
	if got["queue"] != 1500*time.Microsecond || got["compute"] != 250*time.Microsecond {
		t.Fatalf("parsed %v", got)
	}
	if out := ParseServerTiming(""); len(out) != 0 {
		t.Fatalf("empty header parsed to %v", out)
	}
	st := StageTiming{Queue: 1500 * time.Microsecond, Extract: 2*time.Millisecond + 499, Compute: 7, Total: 1234567 * time.Microsecond}
	if got, want := st.ServerTiming(), "queue;dur=1.500, cache;dur=0.000, extract;dur=2.000, compute;dur=0.000, total;dur=1234.567"; got != want {
		t.Fatalf("ServerTiming() = %q, want %q", got, want)
	}
}

// TestBatcherDepthCallback asserts the queue-depth hook tracks pending
// requests: up on submit, down to zero on flush, for both the size- and
// close-triggered paths.
func TestBatcherDepthCallback(t *testing.T) {
	var log flushLog
	b := newBatcher(6, time.Hour, log.flush)
	var mu sync.Mutex
	var depths []int
	b.depth = func(n int) {
		mu.Lock()
		depths = append(depths, n)
		mu.Unlock()
	}
	for _, w := range []*work{workOf(1, 2, 3), workOf(4, 5), workOf(6)} {
		if err := b.Submit(w); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	got := append([]int(nil), depths...)
	mu.Unlock()
	// 1, 2 pending after the first two submits; the third reaches maxBatch=6
	// vertices and flushes, reporting 0.
	want := []int{1, 2, 0}
	if len(got) != len(want) {
		t.Fatalf("depth calls %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("depth calls %v, want %v", got, want)
		}
	}
	if err := b.Submit(workOf(9)); err != nil {
		t.Fatal(err)
	}
	b.Close()
	mu.Lock()
	final := depths[len(depths)-1]
	mu.Unlock()
	if final != 0 {
		t.Fatalf("depth after Close = %d, want 0", final)
	}
}

// TestServeTracerSpans runs traced queries and asserts the extract and
// compute pools emitted spans on their configured rows with the trace-id
// attribute correlating them back to requests.
func TestServeTracerSpans(t *testing.T) {
	ds := testDataset(t, 80, 45)
	tracer := obs.NewTracer()
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features, Source: NewStatic(testModel(ds, nn.GCN, 46)),
		Registry: obs.NewRegistry(), Tracer: tracer,
		ExtractWorkers: 2, ComputeWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Query(&Request{Verts: []int32{int32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	spans := tracer.Snapshot()
	byName := map[string]int{}
	for _, sp := range spans {
		byName[sp.Name]++
		switch sp.Name {
		case "extract":
			if sp.Worker < 0 || sp.Worker >= 2 {
				t.Fatalf("extract span on row %d, want 0..1", sp.Worker)
			}
		case "compute":
			if sp.Worker < 2 || sp.Worker >= 4 {
				t.Fatalf("compute span on row %d, want 2..3", sp.Worker)
			}
		}
	}
	if byName["extract"] == 0 || byName["compute"] == 0 {
		t.Fatalf("span names %v, want extract and compute spans", byName)
	}
}

// TestServeFlushReasonMetrics drives both flush triggers through a real
// server and asserts the reason-labelled counters record them.
func TestServeFlushReasonMetrics(t *testing.T) {
	ds := testDataset(t, 80, 47)
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features, Source: NewStatic(testModel(ds, nn.GCN, 48)),
		Registry: reg, MaxBatch: 2, MaxWait: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// Two concurrent 1-vertex queries can fill maxBatch=2; a lone query must
	// go out on the timer. Either way every request completes and the flush
	// total matches the batch count.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Query(&Request{Verts: []int32{int32(i)}}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	var total float64
	for _, sn := range reg.Gather() {
		if sn.Name == "ns_serve_batcher_flushes_total" {
			total += sn.Value
		}
	}
	if int64(total) != s.Stats().Batches {
		t.Fatalf("flush counters sum to %v, stats report %d batches", total, s.Stats().Batches)
	}
	if total == 0 {
		t.Fatal("no flushes recorded")
	}
}

// TestServeViewsAgree is the serving twin of the engine's
// TestViewsAgreePerDataflow: every view of a request reads the one record
// finish folds. Requests go one at a time — exact (batched, again with its
// top block from the cache, then a third time answered from the cache
// without the pipeline), sampled, inductive and one invalid — so the
// histograms' float
// sums add in the order the test adds them: the latency histogram holds
// exactly Σ Timing.Total, bit for bit, each stage histogram its stage's Σ,
// Stats reads what the registry holds, and the flush counters sum to
// Stats().Batches.
func TestServeViewsAgree(t *testing.T) {
	ds := testDataset(t, 120, 49)
	reg := obs.NewRegistry()
	s, err := New(Config{
		Graph: ds.Graph, Features: ds.Features, Source: NewStatic(testModel(ds, nn.GCN, 50)),
		CacheBytes: 1 << 20, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	feat := make([]float32, ds.Spec.FeatureDim)
	reqs := []*Request{
		{Verts: []int32{1, 2, 40}},
		{Verts: []int32{1, 2, 40}},
		{Verts: []int32{40, 1, 2}},
		{Verts: []int32{8, 33}, Fanouts: []int{2, 2}, Seed: 3},
		{Verts: []int32{7}, Inductive: []InductiveVertex{{Features: feat, Neighbors: []int32{2, 5}}}},
		{Verts: []int32{9999}},
		{Verts: []int32{90}},
	}
	const invalid, fromCache = 5, 2
	var answered int
	var total float64
	stages := map[string]float64{}
	var last StageTiming
	for i, req := range reqs {
		res, err := s.Query(req)
		if err != nil {
			if i != invalid {
				t.Fatalf("request %d: %v", i, err)
			}
			continue
		}
		answered++
		last = res.Timing
		if tm := last; i == fromCache && (tm.Queue+tm.Extract+tm.Compute != 0 || tm.Cache != tm.Total) {
			t.Fatalf("request %d was not answered from the cache: %+v", i, tm)
		}
		total += last.Total.Seconds()
		stages[StageQueue] += last.Queue.Seconds()
		stages[StageCache] += last.Cache.Seconds()
		stages[StageExtract] += last.Extract.Seconds()
		stages[StageCompute] += last.Compute.Seconds()
	}

	snaps := map[string]obs.SeriesSnapshot{}
	var flushes float64
	for _, sn := range reg.Gather() {
		snaps[sn.Key()] = sn
		if sn.Name == "ns_serve_batcher_flushes_total" {
			flushes += sn.Value
		}
	}
	lat := snaps["ns_serve_latency_seconds"]
	if lat.Count != uint64(answered) || math.Float64bits(lat.Sum) != math.Float64bits(total) {
		t.Fatalf("latency histogram count %d sum %v, want %d and Σ Timing.Total %v",
			lat.Count, lat.Sum, answered, total)
	}
	var exemplar bool
	for _, ex := range lat.Exemplars {
		exemplar = exemplar || ex != nil && ex.TraceID == last.TraceIDHex() && ex.Value == last.Total.Seconds()
	}
	if !exemplar {
		t.Fatalf("no latency exemplar for the last request (%s, %v)", last.TraceIDHex(), last.Total)
	}
	for stage, sum := range stages {
		sn := snaps["ns_serve_stage_seconds\xff"+stage]
		if sn.Count != uint64(answered) || math.Float64bits(sn.Sum) != math.Float64bits(sum) {
			t.Fatalf("stage %s histogram count %d sum %v, want %d and %v", stage, sn.Count, sn.Sum, answered, sum)
		}
	}

	st := s.Stats()
	if st.Requests != int64(len(reqs)) || st.Errors != 1 {
		t.Fatalf("Stats requests %d errors %d, want %d and 1", st.Requests, st.Errors, len(reqs))
	}
	if st.Cache.Hits == 0 {
		t.Fatal("the repeated request hit nothing in the cache")
	}
	if st.BatchedRequests != 3 {
		t.Fatalf("%d requests went through the batcher, want the three exact ones the cache did not answer", st.BatchedRequests)
	}
	for name, got := range map[string]int64{
		"ns_serve_requests_total":        st.Requests,
		"ns_serve_errors_total":          st.Errors,
		"ns_serve_batches_total":         st.Batches,
		"ns_serve_cache_hits_total":      st.Cache.Hits,
		"ns_serve_cache_misses_total":    st.Cache.Misses,
		"ns_serve_cache_evictions_total": st.Cache.Evictions,
	} {
		if float64(got) != snaps[name].Value {
			t.Fatalf("Stats reports %d for %s, the registry %v", got, name, snaps[name].Value)
		}
	}
	if int64(flushes) != st.Batches {
		t.Fatalf("flush counters sum to %v, Stats().Batches = %d", flushes, st.Batches)
	}
}
