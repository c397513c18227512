package experiments

import (
	"time"

	"neutronstar/internal/baseline/distdgl"
	"neutronstar/internal/baseline/roc"
	"neutronstar/internal/comm"
	"neutronstar/internal/engine"
	"neutronstar/internal/metrics"
	"neutronstar/internal/nn"
)

// UtilizationReport is one system's resource profile for Figure 13.
type UtilizationReport struct {
	System string
	// AcceleratorUtil is the mean fraction of wall time a worker spends in
	// tensor compute — the analogue of the paper's GPU utilisation.
	AcceleratorUtil float64
	// HostUtil adds communication processing — the CPU utilisation analogue
	// (the paper's CPUs run comm threads; >1 means overlap across threads).
	HostUtil float64
	// SampleUtil is sampling busy time (nonzero only for DistDGL).
	SampleUtil float64
	// NetPeakMBs is the peak receive rate in MB/s; NetSmoothnessCV is the
	// coefficient of variation of the receive-rate curve (lower = smoother,
	// the property the paper credits to ring scheduling).
	NetPeakMBs      float64
	NetSmoothnessCV float64
	TotalRecvMB     float64
}

// Fig13 reproduces the utilisation study of Figure 13 (GCN on Orkut): for
// each of the five systems, run a few epochs under a metrics collector and
// summarise compute/comm/network behaviour over 100 ms buckets.
func Fig13(sc Scale, graphName string) []UtilizationReport {
	ds := load(graphName)
	epochs := sc.Epochs + 1
	var out []UtilizationReport

	run := func(system string, fn func(coll *metrics.Collector)) {
		coll := metrics.NewCollector()
		fn(coll)
		series := coll.BuildSeries(100*time.Millisecond, sc.Workers)
		out = append(out, UtilizationReport{
			System:          system,
			AcceleratorUtil: series.MeanUtil(metrics.Compute),
			HostUtil:        series.MeanUtil(metrics.Compute) + series.MeanUtil(metrics.Comm),
			SampleUtil:      series.MeanUtil(metrics.Sample),
			NetPeakMBs:      series.PeakNetRate() / 1e6,
			NetSmoothnessCV: series.SmoothnessCV(),
			TotalRecvMB:     float64(coll.BytesReceived()) / 1e6,
		})
	}

	run("distdgl", func(coll *metrics.Collector) {
		tr, err := distdgl.New(ds, distdgl.Options{
			Workers: sc.Workers, Model: nn.GCN, Seed: 1, Profile: comm.ProfileECS, Collector: coll,
		})
		if err != nil {
			panic(err)
		}
		defer tr.Close()
		for i := 0; i < epochs; i++ {
			tr.RunEpoch()
		}
	})
	run("roc", func(coll *metrics.Collector) {
		e, err := roc.New(ds, roc.Options{
			Workers: sc.Workers, Model: nn.GCN, Seed: 1, Profile: comm.ProfileECS, Collector: coll,
		})
		if err != nil {
			panic(err)
		}
		defer e.Close()
		e.Train(epochs)
	})
	engineRun := func(system string, mode engine.Mode, rlp bool) {
		run(system, func(coll *metrics.Collector) {
			opts := stdOpts(mode, nn.GCN, sc.Workers, comm.ProfileECS)
			if rlp {
				opts = withRLP(opts, true, true, true)
			}
			opts.Collector = coll
			e, err := engine.NewEngine(ds, opts)
			if err != nil {
				panic(err)
			}
			defer e.Close()
			e.Train(epochs)
		})
	}
	engineRun("depcache", engine.DepCache, false)
	engineRun("depcomm", engine.DepComm, true)
	engineRun("neutronstar", engine.Hybrid, true)
	return out
}
