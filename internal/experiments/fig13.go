package experiments

import (
	"time"

	"neutronstar/internal/baseline/distdgl"
	"neutronstar/internal/baseline/roc"
	"neutronstar/internal/comm"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
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
// each of the five systems, run a few epochs under a tracer and summarise
// compute/comm/network behaviour over 100 ms buckets.
func Fig13(sc Scale, graphName string) []UtilizationReport {
	ds := load(graphName)
	epochs := sc.Epochs + 1
	var out []UtilizationReport

	run := func(system string, fn func(tracer *obs.Tracer)) {
		tracer := obs.NewTracer()
		fn(tracer)
		s := buildSeries(tracer, 100*time.Millisecond, sc.Workers)
		out = append(out, UtilizationReport{
			System:          system,
			AcceleratorUtil: s.meanUtil(obs.ClassCompute),
			HostUtil:        s.meanUtil(obs.ClassCompute) + s.meanUtil(obs.ClassComm),
			SampleUtil:      s.meanUtil(obs.ClassSample),
			NetPeakMBs:      s.peakNetRate() / 1e6,
			NetSmoothnessCV: s.smoothnessCV(),
			TotalRecvMB:     float64(recvBytes(tracer)) / 1e6,
		})
	}

	run("distdgl", func(tracer *obs.Tracer) {
		tr, err := distdgl.New(ds, distdgl.Options{
			Workers: sc.Workers, Model: nn.GCN, Seed: 1, Profile: comm.ProfileECS, Tracer: tracer,
		})
		if err != nil {
			panic(err)
		}
		defer tr.Close()
		for i := 0; i < epochs; i++ {
			tr.RunEpoch()
		}
	})
	run("roc", func(tracer *obs.Tracer) {
		e, err := roc.New(ds, roc.Options{
			Workers: sc.Workers, Model: nn.GCN, Seed: 1, Profile: comm.ProfileECS, Tracer: tracer,
		})
		if err != nil {
			panic(err)
		}
		defer e.Close()
		e.Train(epochs)
	})
	engineRun := func(system string, mode engine.Mode, rlp bool) {
		run(system, func(tracer *obs.Tracer) {
			opts := stdOpts(mode, nn.GCN, sc.Workers, comm.ProfileECS)
			if rlp {
				opts = withRLP(opts, true, true, true)
			}
			opts.Tracer = tracer
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
