package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
)

// training is a set-up engine with its dataset.
type training struct {
	ds  *dataset.Dataset
	eng *engine.Engine
}

// loadDataset generates the workload's inputs from the run's seed.
func loadDataset(w workload, cfg *runConfig, parent *openSpan) *dataset.Dataset {
	sp := cfg.tr.start("dataset.Load", parent)
	ds := dataset.Load(w.spec(cfg.seed, cfg.sz))
	sp.end()
	return ds
}

// newEngine builds an engine on ds (partition, probe, plan, replica build)
// and runs the warm-up epochs.
func newEngine(opts engine.Options, ds *dataset.Dataset, warm int, cfg *runConfig, parent *openSpan) (*engine.Engine, error) {
	sp := cfg.tr.start("engine.NewEngine", parent)
	eng, err := engine.NewEngine(ds, opts)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("engine.NewEngine(%s, %d workers): %w", opts.Mode, opts.Workers, err)
	}
	for i := 0; i < warm; i++ {
		sp := cfg.tr.start("engine.RunEpoch(warm-up)", parent)
		eng.RunEpoch()
		sp.end()
	}
	return eng, nil
}

// setUpTraining is what setup_s times on a training workload.
func setUpTraining(w workload, cfg *runConfig) (*training, error) {
	ds := loadDataset(w, cfg, nil)
	eng, err := newEngine(w.engineOptions(), ds, cfg.sz.warmEpochs, cfg, nil)
	if err != nil {
		return nil, err
	}
	return &training{ds: ds, eng: eng}, nil
}

// repeatSetUp runs setUp cfg.sz.setups times, keeps the last result and
// returns every duration in seconds. Earlier results are released through
// discard and their memory is collected and handed back to the kernel before
// the next repetition; without that, peak_rss_mb depends on how much of the
// earlier set-ups' garbage the collector happened to have reached (1.2–1.9 GB
// on train-compute, against a steady 1.0 GB with it).
func repeatSetUp[T any](cfg *runConfig, setUp func() (T, error), discard func(T)) (T, []float64, error) {
	var last T
	var secs []float64
	for i := 0; i < cfg.sz.setups; i++ {
		start := time.Now()
		v, err := setUp()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
		if i < cfg.sz.setups-1 {
			discard(v)
			debug.FreeOSMemory()
		}
	}
	return last, secs, nil
}

// epochWindow is the outcome of one measured run of epochs.
type epochWindow struct {
	ms     []float64 // per-epoch wall by the benchmark's own clock
	losses []float64
	wall   time.Duration
}

// measureEpochs runs epochs until the given time has passed (0 = no time
// limit) or maxEpochs have run (0 = no count limit), but at least two so a
// loss trend exists, timing each Engine.RunEpoch call.
func measureEpochs(eng *engine.Engine, seconds float64, maxEpochs int, tr *tracer, parent *openSpan) epochWindow {
	var win epochWindow
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for {
		n := len(win.ms)
		if n >= 2 && ((seconds > 0 && time.Now().After(deadline)) || (maxEpochs > 0 && n >= maxEpochs)) {
			break
		}
		sp := tr.start("engine.RunEpoch", parent)
		t0 := time.Now()
		st := eng.RunEpoch()
		win.ms = append(win.ms, float64(time.Since(t0).Nanoseconds())/1e6)
		sp.end()
		win.losses = append(win.losses, st.Loss)
	}
	win.wall = time.Since(start)
	return win
}

// oracleEpoch is the epoch whose loss is compared with the 1-worker run.
const oracleEpoch = 5

// oracleTolerance is the cross-policy oracle's 1e-5 loosened for float32
// summation order at this graph size.
const oracleTolerance = 1e-3

// checkTraining runs the output checks of a training workload, outside every
// timing. It returns the number of failed epochs (NaN/Inf losses) and one
// message per failed check.
func checkTraining(w workload, cfg *runConfig, tr *training, win epochWindow) (failedEpochs int, problems []string) {
	for _, l := range win.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			failedEpochs++
		}
	}
	if failedEpochs > 0 {
		problems = append(problems, fmt.Sprintf("%d epochs with a non-finite loss", failedEpochs))
	}
	if first, last := win.losses[0], win.losses[len(win.losses)-1]; !(last < first) {
		problems = append(problems, fmt.Sprintf("loss did not fall over the measured window: %.6f -> %.6f", first, last))
	}
	if !tr.eng.ReplicasInSync() {
		problems = append(problems, "worker replicas hold different parameters")
	}

	hist := tr.eng.History()
	if len(hist) < oracleEpoch {
		problems = append(problems, fmt.Sprintf("only %d epochs ran, oracle needs %d", len(hist), oracleEpoch))
		return failedEpochs, problems
	}
	got := hist[oracleEpoch-1].Loss
	ref := w.engineOptions()
	ref.Workers, ref.Mode = 1, engine.DepCache
	refEng, err := newEngine(ref, tr.ds, 0, cfg, nil)
	if err != nil {
		return failedEpochs, append(problems, err.Error())
	}
	defer refEng.Close()
	stats := refEng.Train(oracleEpoch)
	want := stats[oracleEpoch-1].Loss
	if rel := math.Abs(got-want) / math.Abs(want); !(rel <= oracleTolerance) {
		problems = append(problems, fmt.Sprintf("loss at epoch %d is %.8f, 1-worker depcache gives %.8f (rel %.2e > %.0e)",
			oracleEpoch, got, want, rel, oracleTolerance))
	}
	return failedEpochs, problems
}

// runTraining is the untraced end-to-end run of a training workload.
func runTraining(w workload, cfg *runConfig) (*result, error) {
	tr, setupSecs, err := repeatSetUp(cfg, func() (*training, error) { return setUpTraining(w, cfg) },
		func(t *training) { t.eng.Close() })
	if err != nil {
		return nil, err
	}
	defer tr.eng.Close()

	runtime.GC()
	win := measureEpochs(tr.eng, cfg.seconds, cfg.sz.maxEpochs, nil, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	failed, problems := checkTraining(w, cfg, tr, win)

	n := len(win.ms)
	cfg.notef("%s: %d measured epochs (p90 has %d samples beyond it, wants 10), %d edges, setup repeats %v",
		w.name, n, n-int(math.Ceil(0.9*float64(n))), tr.ds.NumEdges(), setupSecs)
	res := &result{Attempted: n, Failed: failed, problems: problems, Metrics: map[string]metric{}}
	res.set("setup_s", median(setupSecs), "s")
	res.set("op_ms_p50", median(win.ms), "ms")
	res.set("op_ms_p90", percentile(win.ms, 90), "ms")
	res.set("ops_per_s", float64(n)/win.wall.Seconds(), "1/s")
	res.set("peak_rss_mb", rss, "MB")
	return res, nil
}
