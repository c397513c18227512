package experiments

import (
	"time"

	"neutronstar/internal/baseline/distdgl"
	"neutronstar/internal/comm"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
)

// AccuracyPoint is one sample of a time-to-accuracy curve.
type AccuracyPoint struct {
	Seconds  float64
	Accuracy float64
	Epoch    int
}

// AccuracyCurve is one system's convergence trajectory for Figure 14.
type AccuracyCurve struct {
	System string
	Points []AccuracyPoint
	// Best is the highest test accuracy reached; TimeToTarget is the first
	// wall-clock time the target accuracy was met (0 if never).
	Best         float64
	TimeToTarget float64
}

// Fig14 reproduces the accuracy comparison of Figure 14 (GCN on the
// Reddit-like graph): time-to-accuracy curves for Hybrid, DepComm and
// DepCache (full-graph, identical convergence per epoch, different epoch
// times) and the sampling baseline (more epochs needed, capped accuracy).
// target is the accuracy threshold used for TimeToTarget (the paper picks
// the sampling baseline's best, 93.92%).
func Fig14(sc Scale, maxEpochs, evalEvery int, target float64) []AccuracyCurve {
	ds := load("reddit")
	curve := func(system string, epoch func(), evaluate func(mask []bool) float64) AccuracyCurve {
		c := AccuracyCurve{System: system}
		var cumulative time.Duration // training time only; evaluation is out-of-band
		for ep := 1; ep <= maxEpochs; ep++ {
			cumulative += timed(1, epoch)
			if ep%evalEvery != 0 {
				continue
			}
			acc := evaluate(ds.TestMask)
			c.Points = append(c.Points, AccuracyPoint{Seconds: cumulative.Seconds(), Accuracy: acc, Epoch: ep})
			if acc > c.Best {
				c.Best = acc
			}
			if c.TimeToTarget == 0 && acc >= target {
				c.TimeToTarget = cumulative.Seconds()
			}
		}
		return c
	}

	var out []AccuracyCurve
	for _, sys := range []struct {
		name string
		mode engine.Mode
	}{{"hybrid", engine.Hybrid}, {"depcomm", engine.DepComm}, {"depcache", engine.DepCache}} {
		opts := stdOpts(sys.mode, nn.GCN, sc.Workers, comm.ProfileECS)
		if sys.mode != engine.DepCache {
			opts = withRLP(opts, true, true, true)
		}
		opts.LR = 0.02
		e, err := engine.NewEngine(ds, opts)
		if err != nil {
			panic(err)
		}
		out = append(out, curve(sys.name, func() { e.RunEpoch() }, e.Evaluate))
		e.Close()
	}

	// DepCache-with-sampling baseline (single node, like the paper's
	// DGL-sampling configuration).
	tr, err := distdgl.New(ds, distdgl.Options{
		Workers: 1, Model: nn.GCN, Seed: 1, LR: 0.02, Profile: comm.ProfileECS,
	})
	if err != nil {
		panic(err)
	}
	defer tr.Close()
	return append(out, curve("depcache-sampling", func() { tr.RunEpoch() }, tr.Evaluate))
}
