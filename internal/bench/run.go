package bench

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/metrics"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// RunSpec names one benchmark configuration.
type RunSpec struct {
	Name    string
	Mode    engine.Mode
	Workers int
	// Warmup epochs run but are not measured (first-epoch allocator and
	// cache effects would otherwise dominate the medians on small graphs).
	Warmup int
	Epochs int
	// Pool enables the tensor pool for the run; the emitted Run then carries
	// a PoolSummary alongside the allocator deltas.
	Pool bool
	// RepBudget is the per-worker compressed replica byte budget for
	// deprep/hybrid4 runs (0 is mapped to unlimited by the engine).
	RepBudget int64
	// Collector, when non-nil, attaches the utilisation collector to the
	// run's engine so nsbench -json can emit a Chrome trace (with the causal
	// flow arrows) alongside the document.
	Collector *metrics.Collector
}

// BenchSpec is the fixed small workload of the perf-smoke pipeline: an RMAT
// graph big enough that stage times are non-trivial, small enough for CI.
func BenchSpec() dataset.Spec {
	return dataset.Spec{
		Name:       "bench-rmat",
		Vertices:   4000,
		AvgDegree:  12,
		FeatureDim: 32,
		NumClasses: 8,
		HiddenDim:  16,
		Gen:        dataset.GenRMAT,
		Skew:       0.45,
		Seed:       99,
	}
}

// DefaultRuns covers the dependency policies — the hybrid plan and the
// all-communicate plan at the requested cluster size (both exercise the
// fabric), the all-cache plan on one worker (which must move zero bytes),
// and the 3-way plan, whose document rows witness the tensor-parallel
// collectives' exactly-once byte attribution — plus an unpooled hybrid run
// so the document itself witnesses what the tensor pool saves (compare
// allocs_per_epoch between hybrid-wN and hybrid-wN-nopool).
func DefaultRuns(workers int) []RunSpec {
	return []RunSpec{
		{Name: fmt.Sprintf("hybrid-w%d", workers), Mode: engine.Hybrid, Workers: workers, Warmup: 1, Epochs: 5, Pool: true},
		{Name: fmt.Sprintf("hybrid-w%d-nopool", workers), Mode: engine.Hybrid, Workers: workers, Warmup: 1, Epochs: 5},
		{Name: fmt.Sprintf("depcomm-w%d", workers), Mode: engine.DepComm, Workers: workers, Warmup: 1, Epochs: 5, Pool: true},
		{Name: "depcache-w1", Mode: engine.DepCache, Workers: 1, Warmup: 1, Epochs: 5, Pool: true},
		{Name: fmt.Sprintf("hybrid3-w%d", workers), Mode: engine.Hybrid3, Workers: workers, Warmup: 1, Epochs: 5, Pool: true},
	}
}

// PolicyRun builds one extra pinned-shape run for a named policy (the nsbench
// -policy flag), matching the DefaultRuns epoch/pool shape so its rows are
// comparable against the defaults.
func PolicyRun(policy string, workers int) (RunSpec, error) {
	if names := engine.ModeNames(); !slices.Contains(names, policy) {
		return RunSpec{}, fmt.Errorf("bench: unknown policy %q (valid: %s)", policy, strings.Join(names, ", "))
	}
	return RunSpec{
		Name: fmt.Sprintf("%s-w%d", policy, workers), Mode: engine.Mode(policy),
		Workers: workers, Warmup: 1, Epochs: 5, Pool: true,
	}, nil
}

// Execute runs every spec on ds and assembles the document.
func Execute(ds *dataset.Dataset, specs []RunSpec) (*Doc, error) {
	doc := &Doc{
		SchemaVersion: SchemaVersion,
		Graph: GraphInfo{
			Name:       ds.Spec.Name,
			Vertices:   ds.NumVertices(),
			Edges:      ds.NumEdges(),
			FeatureDim: ds.Spec.FeatureDim,
			HiddenDim:  ds.Spec.HiddenDim,
			Classes:    ds.Spec.NumClasses,
			Layers:     2,
		},
		Host: CurrentHost(),
	}
	for _, spec := range specs {
		run, err := ExecuteRun(ds, spec)
		if err != nil {
			return nil, fmt.Errorf("bench: run %q: %w", spec.Name, err)
		}
		doc.Runs = append(doc.Runs, *run)
	}
	return doc, nil
}

// ExecuteRun trains one configuration under a flight recorder and summarises
// the measured epochs. Allocator pressure (Mallocs / TotalAlloc deltas) is
// measured across the post-warmup epochs only, with a GC between warmup and
// measurement so warmup garbage is not attributed to the measured window.
func ExecuteRun(ds *dataset.Dataset, spec RunSpec) (*Run, error) {
	if spec.Epochs <= 0 {
		return nil, fmt.Errorf("epochs = %d", spec.Epochs)
	}
	var pool *tensor.Pool
	if spec.Pool {
		pool = tensor.NewPool()
	}
	rec := obs.NewFlightRecorder()
	// Causal recording is always on for bench runs: the critical path and
	// straggler indices are part of the v3 document, and the per-event cost
	// is noise at this workload size.
	rec.EnableCausal()
	eng, err := engine.NewEngine(ds, engine.Options{
		Workers:   spec.Workers,
		Mode:      spec.Mode,
		Ring:      true,
		LockFree:  true,
		Overlap:   true,
		Seed:      1,
		Pool:      pool,
		RepBudget: spec.RepBudget,
		Recorder:  rec,
		Collector: spec.Collector,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	stats := eng.Train(spec.Warmup)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	stats = append(stats, eng.Train(spec.Epochs)...)
	runtime.ReadMemStats(&m1)
	recs := rec.Snapshot()
	if len(recs) < spec.Warmup+spec.Epochs {
		return nil, fmt.Errorf("recorded %d epochs, expected %d", len(recs), spec.Warmup+spec.Epochs)
	}
	recs = recs[spec.Warmup:]
	run := summarize(eng, spec, recs, stats[len(stats)-1].Loss)
	run.AllocsPerEpoch = int64(m1.Mallocs-m0.Mallocs) / int64(spec.Epochs)
	run.HeapBytesPerEpoch = int64(m1.TotalAlloc-m0.TotalAlloc) / int64(spec.Epochs)
	if pool != nil {
		ps := pool.Stats()
		run.Pool = &PoolSummary{
			Hits:           ps.Hits,
			Misses:         ps.Misses,
			HighWaterBytes: ps.HighWaterBytes,
			HitRate:        ps.HitRate(),
		}
	}
	return run, nil
}

func summarize(eng *engine.Engine, spec RunSpec, recs []obs.EpochRecord, finalLoss float64) *Run {
	run := &Run{
		Name:      spec.Name,
		Mode:      string(spec.Mode),
		Workers:   spec.Workers,
		Epochs:    len(recs),
		FinalLoss: finalLoss,
	}
	walls := make([]float64, len(recs))
	var wallSum float64
	var bytesSum int64
	var coverSum float64
	for i := range recs {
		r := &recs[i]
		walls[i] = r.WallSeconds
		wallSum += r.WallSeconds
		bytesSum += r.TotalBytes()
		var covered float64
		for _, s := range obs.StageNames() {
			if s == "checkpoint" {
				continue // saved outside the epoch wall by design
			}
			covered += r.StageSeconds(s)
		}
		if span := float64(r.Workers) * r.WallSeconds; span > 0 {
			coverSum += covered / span
		}
	}
	n := float64(len(recs))
	run.WallMedianSeconds = median(walls)
	run.WallMeanSeconds = wallSum / n
	if wallSum > 0 {
		run.EpochsPerSec = n / wallSum
	}
	run.BytesPerEpoch = int64(float64(bytesSum) / n)
	run.StageCoverage = coverSum / n

	// Causal summary: the straggler index is a per-epoch median (robust to
	// one skewed epoch), the barrier share a mean, and the critical path is
	// taken from the epoch closest to the median wall time — a representative
	// epoch, not a cherry-picked best or worst.
	stragglers := make([]float64, 0, len(recs))
	var barrierSum float64
	medianIdx, medianDist := -1, 0.0
	for i := range recs {
		r := &recs[i]
		if r.StragglerIndex > 0 {
			stragglers = append(stragglers, r.StragglerIndex)
		}
		barrierSum += r.BarrierShare
		if d := abs(r.WallSeconds - run.WallMedianSeconds); medianIdx < 0 || d < medianDist {
			medianIdx, medianDist = i, d
		}
	}
	run.StragglerIndex = median(stragglers)
	run.BarrierShare = barrierSum / n
	if medianIdx >= 0 {
		run.CritPath = recs[medianIdx].CritPath
	}

	for _, stage := range obs.StageNames() {
		perEpoch := make([]float64, len(recs))
		var secSum float64
		var bSum, mSum int64
		for i := range recs {
			s := recs[i].StageSeconds(stage)
			perEpoch[i] = s
			secSum += s
			bSum += recs[i].StageBytes(stage)
			mSum += recs[i].StageMsgs(stage)
		}
		if secSum == 0 && bSum == 0 && mSum == 0 {
			continue
		}
		run.Stages = append(run.Stages, StageSummary{
			Stage:         stage,
			MedianSeconds: median(perEpoch),
			MeanSeconds:   secSum / n,
			BytesPerEpoch: int64(float64(bSum) / n),
			MsgsPerEpoch:  int64(float64(mSum) / n),
		})
	}

	if cr := eng.CostReportFrom(recs); cr != nil {
		rs := &ResidualSummary{
			FitMethod:        cr.FitMethod,
			Probed:           FactorSet{Tv: cr.Probed.Tv, Te: cr.Probed.Te, Tc: cr.Probed.Tc},
			Fitted:           FactorSet{Tv: cr.Fitted.Tv, Te: cr.Fitted.Te, Tc: cr.Fitted.Tc},
			FlipsCacheToComm: cr.Flips.CacheToComm,
			FlipsCommToCache: cr.Flips.CommToCache,
			FlipsToTP:        cr.Flips.ToTP,
			FlipsFromTP:      cr.Flips.FromTP,
			FlipsToRep:       cr.Flips.ToRep,
			FlipsFromRep:     cr.Flips.FromRep,
			Slots:            cr.Flips.Slots,
		}
		for _, lr := range cr.Layers {
			rs.MaxAbsComputeResidual = maxAbs(rs.MaxAbsComputeResidual, lr.ComputeResidual)
			rs.MaxAbsCommResidual = maxAbs(rs.MaxAbsCommResidual, lr.CommResidual)
		}
		run.Residuals = rs
	}
	return run
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxAbs(cur, x float64) float64 {
	if x < 0 {
		x = -x
	}
	if x > cur {
		return x
	}
	return cur
}
