package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/serve"
	"neutronstar/internal/tensor"
)

// A traced run prints the per-layer metrics. It takes three looks at the
// workload: the ladder (ladder.go), the engine's own attribution hooks over a
// short training window of the workload's configuration, and the server's
// per-request Server-Timing over a short serving window of the model that
// training produced. Every workload reports every metric, so a training
// workload also serves briefly here and serve-mix also trains.

// Shares of -seconds the traced windows get.
const (
	untracedEpochShare = 0.20 // the reference for engine.trace_overhead_share
	tracedEpochShare   = 0.20
	tracedServeShare   = 0.15
)

// tracedBumpEvery replaces sizes.bumpEvery in the traced serving window,
// which is too short to see several bumps at the end-to-end spacing.
const tracedBumpEvery = 1000

// pinnedPolicies are the pure policies hybrid.regret compares against.
var pinnedPolicies = []engine.Mode{engine.DepCache, engine.DepComm, engine.DepTP, engine.DepRep}

func runTraced(w workload, cfg *runConfig) (*result, error) {
	cfg.tr = newTracer(w.name)
	root := cfg.tr.start("traced run", nil)
	res := &result{Metrics: map[string]metric{}}

	ds := loadDataset(w, cfg, root)

	sp := cfg.tr.start("ladder", root)
	layerSeconds, err := runLadder(w, ds, cfg, res, sp)
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = cfg.tr.start("engine attribution", root)
	model, err := traceEngine(w, ds, layerSeconds, cfg, res, sp)
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = cfg.tr.start("serve attribution", root)
	err = traceServing(w, ds, model, cfg, res, sp)
	sp.end()
	if err != nil {
		return nil, err
	}

	root.end()
	if err := cfg.tr.write(cfg.outDir); err != nil {
		return nil, err
	}
	return res, nil
}

// traceEngine measures a short untraced window, then the same configuration
// under a causal flight recorder, and derives the engine.*, costmodel.*,
// hybrid.* and tensor.pool_* metrics. It returns the trained model.
func traceEngine(w workload, ds *dataset.Dataset, layerSeconds float64, cfg *runConfig, res *result, parent *openSpan) (*nn.Model, error) {
	plain, err := newEngine(w.engineOptions(), ds, cfg.sz.warmEpochs, cfg, parent)
	if err != nil {
		return nil, err
	}
	untraced := measureEpochs(plain, cfg.seconds*untracedEpochShare, cfg.sz.maxEpochs, cfg.tr, parent)
	plain.Close()
	untracedP50 := median(untraced.ms)

	rec := obs.NewFlightRecorder()
	rec.EnableCausal()
	opts := w.engineOptions()
	opts.Recorder = rec
	eng, err := newEngine(opts, ds, cfg.sz.warmEpochs, cfg, parent)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced := measureEpochs(eng, cfg.seconds*tracedEpochShare, cfg.sz.maxEpochs, cfg.tr, parent)
	runtime.ReadMemStats(&m1)
	n := len(traced.ms)
	res.Attempted += len(untraced.ms) + n
	for _, l := range append(untraced.losses, traced.losses...) {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			res.Failed++
		}
	}

	recs := rec.Snapshot()
	if len(recs) < n {
		return nil, fmt.Errorf("%s: flight recorder holds %d epochs, %d were measured", w.name, len(recs), n)
	}
	recs = recs[len(recs)-n:]
	// stage is the median over the traced epochs of a stage's time summed
	// over workers.
	stage := func(name string) float64 {
		xs := make([]float64, len(recs))
		for i := range recs {
			xs[i] = recs[i].StageSeconds(name)
		}
		return median(xs)
	}
	var busy, coverage, bytes, msgs, straggler, barrierShare, critComm []float64
	for i := range recs {
		r := &recs[i]
		var sum float64
		var nm int64
		for _, s := range obs.StageNames() {
			if s == "checkpoint" {
				continue // saved outside the epoch wall by design
			}
			sum += r.StageSeconds(s)
			nm += r.StageMsgs(s)
		}
		busy = append(busy, sum)
		coverage = append(coverage, sum/(float64(r.Workers)*r.WallSeconds))
		// Every logical message is counted at the sender and at the receiver.
		bytes = append(bytes, float64(r.TotalBytes())/2)
		msgs = append(msgs, float64(nm)/2)
		straggler = append(straggler, r.StragglerIndex)
		barrierShare = append(barrierShare, r.BarrierShare)
		if cp := r.CritPath; cp != nil && cp.CoveredSeconds > 0 {
			var net float64
			for _, s := range cp.Spans {
				if s.Kind == "net" {
					net += s.Seconds()
				}
			}
			critComm = append(critComm, net/cp.CoveredSeconds)
		}
	}
	fwd, bwd := stage("forward"), stage("backward")
	depFetch, mirror := stage("dep_fetch_recv"), stage("mirror_scatter")
	total := median(busy)
	res.set("engine.forward_s", fwd, "s")
	res.set("engine.backward_s", bwd, "s")
	// The stages below are structurally zero on some workloads (no dependency
	// traffic under DepCache, no peers on one worker), so they are printed as
	// shares of the summed stage time, not as times.
	depShare := (depFetch + mirror) / total
	res.set("engine.dep_fetch_recv_share", depFetch/total, "ratio")
	res.set("engine.mirror_scatter_share", mirror/total, "ratio")
	res.set("engine.grad_sync_share", stage("grad_sync")/total, "ratio")
	res.set("engine.barrier_share", median(barrierShare), "ratio")
	res.set("engine.stage_s_per_epoch", total, "s")
	res.set("engine.comm_bytes_per_epoch", median(bytes), "B")
	res.set("engine.msgs_per_epoch", median(msgs), "count")
	res.set("engine.stage_coverage", median(coverage), "ratio")
	res.set("engine.straggler_index", median(straggler), "ratio")
	if len(critComm) == 0 {
		return nil, fmt.Errorf("%s: no epoch carries a critical path although causal recording is on", w.name)
	}
	res.set("engine.critpath_comm_share", median(critComm), "ratio")
	res.set("engine.allocs_per_epoch", float64(m1.Mallocs-m0.Mallocs)/float64(n), "count")
	res.set("engine.alloc_mb_per_epoch", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n)/1e6, "MB")
	res.set("engine.trace_overhead_share", (median(traced.ms)-untracedP50)/untracedP50, "ratio")
	// One worker's ladder time for both layers, times the workers, over what
	// the engine attributes to compute. Below 1 when workers recompute
	// replicated subtrees or share cores; far from the value in README.md
	// means the ladder is missing a rung, not that something regressed.
	res.set("engine.ladder_reconcile_ratio", layerSeconds*float64(w.workers)/(fwd+bwd), "ratio")

	cr := eng.CostReportFrom(recs)
	if cr == nil {
		return nil, fmt.Errorf("%s: engine returned no cost report for %d records", w.name, len(recs))
	}
	res.set("costmodel.tc_fit_over_probe", cr.Fitted.Tc/cr.Probed.Tc, "ratio")
	var maxResidual float64
	for _, lr := range cr.Layers {
		maxResidual = math.Max(maxResidual, math.Abs(lr.CommResidual))
	}
	res.set("costmodel.max_abs_comm_residual", maxResidual, "ratio")

	cached, comms := 0, 0
	for _, d := range eng.Decisions() {
		cached += d.NumCached()
		comms += d.NumComm()
	}
	cachedShare := 0.0 // one worker has no remote dependencies to split
	if cached+comms > 0 {
		cachedShare = float64(cached) / float64(cached+comms)
	}
	res.set("hybrid.cached_share", cachedShare, "ratio")
	res.set("hybrid.cache_mb", float64(eng.CacheBytes())/1e6, "MB")

	ps := opts.Pool.Stats()
	res.set("tensor.pool_hit_ratio", ps.HitRate(), "ratio")
	res.set("tensor.pool_high_water_mb", float64(ps.HighWaterBytes)/1e6, "MB")

	// hybrid.regret: this workload's policy against the best pure policy on
	// the same graph, model and profile.
	best := math.Inf(1)
	for _, mode := range pinnedPolicies {
		sp := cfg.tr.start("regret:"+string(mode), parent)
		o := w.engineOptions()
		o.Mode = mode
		pe, err := newEngine(o, ds, 1, cfg, sp)
		if err != nil {
			return nil, err
		}
		win := measureEpochs(pe, 0, cfg.sz.regretEpochs, cfg.tr, sp)
		pe.Close()
		sp.end()
		best = math.Min(best, median(win.ms))
	}
	res.set("hybrid.regret", untracedP50/best, "ratio")

	if !cfg.sz.quick { // the shape assertions mean nothing on a -quick graph
		switch w.name {
		case "train-compute":
			if depShare > 0.02 {
				res.problems = append(res.problems, fmt.Sprintf("dependency stages are %.1f%% of stage time, a compute workload allows 2%%", 100*depShare))
			}
		case "train-comm":
			if depShare < 0.25 {
				res.problems = append(res.problems, fmt.Sprintf("dependency stages are %.1f%% of stage time, a comm workload needs 25%%", 100*depShare))
			}
		}
	}
	return eng.CloneModel(), nil
}

// traceServing serves model on loopback HTTP for a short traced window and
// derives the serve.* metrics.
func traceServing(w workload, ds *dataset.Dataset, model *nn.Model, cfg *runConfig, res *result, parent *openSpan) error {
	s, err := startServing(ds, w.model, model, cfg, parent)
	if err != nil {
		return err
	}
	defer s.close()
	if !cfg.sz.quick {
		s.bumpEvery = tracedBumpEvery
	}

	before := s.srv.Stats().Cache
	sp := cfg.tr.start("traced requests", parent)
	win := s.measureRequests(time.Duration(cfg.seconds*tracedServeShare*float64(time.Second)), cfg.sz.maxRequests, cfg.tr, sp)
	sp.endCount(len(win.samples))
	after := s.srv.Stats().Cache
	wrong, problems := s.checkServing(win.kept)
	res.Attempted += len(win.samples)
	res.Failed += win.failed + wrong
	res.problems = append(res.problems, problems...)
	if win.failed > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d traced requests failed, first: %s", win.failed, win.firstErr))
	}

	all, hot, cold := classMS(win.samples)
	if len(hot) == 0 || len(cold) == 0 {
		return fmt.Errorf("%s: traced serving window saw %d hot and %d cold requests", w.name, len(hot), len(cold))
	}
	hotP50, coldP50 := median(hot), median(cold)
	res.set("serve.hot_ms_p50", hotP50, "ms")
	res.set("serve.cold_ms_p50", coldP50, "ms")
	res.set("serve.ms_p99", percentile(all, 99), "ms")
	// Stage times are means, not medians: Server-Timing is printed in whole
	// microseconds, and means keep the stages adding up to the total.
	for _, st := range []string{serve.StageQueue, serve.StageCache, serve.StageExtract, serve.StageCompute} {
		var h, c []float64
		for _, smp := range win.samples {
			if smp.failed {
				continue
			}
			ms := float64(smp.stages[st].Nanoseconds()) / 1e6
			if smp.hot {
				h = append(h, ms)
			} else {
				c = append(c, ms)
			}
		}
		res.set("serve."+st+"_ms_mean.hot", mean(h), "ms")
		res.set("serve."+st+"_ms_mean.cold", mean(c), "ms")
	}
	lookups := float64(after.Hits - before.Hits + after.Misses - before.Misses)
	hitRatio := float64(after.Hits-before.Hits) / lookups
	res.set("serve.cache_hit_ratio", hitRatio, "ratio")
	var postBump []float64
	for _, smp := range win.samples {
		if !smp.failed && smp.sinceBump > 0 && smp.sinceBump <= 100 {
			postBump = append(postBump, smp.ms)
		}
	}
	res.set("serve.post_bump_ms_p50", median(postBump), "ms")

	// Direct against HTTP, one caller, the same requests both ways in
	// alternating order so neither side always finds the cache warmer.
	sp = cfg.tr.start("direct vs http", parent)
	stream := newRequestStream(cfg.seed+uint64(serveClients), s.hot, ds.NumVertices())
	pairs := 200
	if cfg.sz.quick {
		pairs = 20
	}
	var direct, viaHTTP []float64
	for i := 0; i < pairs; i++ {
		verts, _ := stream.next()
		body := predictBody(verts)
		for k := 0; k < 2; k++ {
			t0 := time.Now()
			if (i+k)%2 == 0 {
				_, err = s.srv.Query(&serve.Request{Verts: verts})
				direct = append(direct, float64(time.Since(t0).Nanoseconds())/1e6)
			} else {
				_, _, err = post(s.clients[0], s.url, body)
				viaHTTP = append(viaHTTP, float64(time.Since(t0).Nanoseconds())/1e6)
			}
			if err != nil {
				return fmt.Errorf("%s: direct-vs-http request: %w", w.name, err)
			}
		}
	}
	sp.endCount(2 * pairs)
	res.set("serve.direct_ms_p50", median(direct), "ms")
	res.set("serve.http_overhead_ms", median(viaHTTP)-median(direct), "ms")

	// A lone 1-vertex request on an idle server waits out MaxWait.
	rng := tensor.NewRNG(cfg.seed ^ 0x10E)
	var lone []float64
	for i := 0; i < 5; i++ {
		v := int32(rng.Intn(ds.NumVertices()))
		sp := cfg.tr.start("serve.Server.Query(lone)", parent)
		t0 := time.Now()
		_, err := s.srv.Query(&serve.Request{Verts: []int32{v}})
		lone = append(lone, float64(time.Since(t0).Nanoseconds())/1e6)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: lone request: %w", w.name, err)
		}
	}
	res.set("serve.lone_request_ms", median(lone), "ms")

	if w.serving && !cfg.sz.quick {
		if coldP50 < 2*hotP50 {
			res.problems = append(res.problems, fmt.Sprintf("cold p50 %.3f ms is under twice hot p50 %.3f ms: the cache does not separate the classes", coldP50, hotP50))
		}
		if hitRatio < 0.5 || hitRatio > 0.98 {
			res.problems = append(res.problems, fmt.Sprintf("cache hit ratio %.3f outside [0.5, 0.98]: change serveCacheBytes", hitRatio))
		}
	}
	return nil
}
