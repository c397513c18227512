// Command nstrain trains a GNN on a built-in dataset with a chosen engine
// and reports per-epoch loss, timing and final accuracy.
//
// Usage:
//
//	nstrain -dataset reddit -engine hybrid -model gcn -workers 8 -epochs 30
//
// With -ckpt-dir the run snapshots its full training state (parameters,
// optimiser moments, RNG positions, loss history) every -ckpt-every epochs;
// -resume restarts from the newest snapshot in that directory:
//
//	nstrain -dataset reddit -epochs 50 -ckpt-dir /tmp/ckpt -ckpt-every 5
//	nstrain -dataset reddit -epochs 50 -ckpt-dir /tmp/ckpt -resume
//
// With -fault-spec every non-local message is subjected to deterministic
// drops, delays and duplicates, with retransmission keeping the run alive:
//
//	nstrain -dataset reddit -epochs 30 -fault-spec 'drop=0.05,jitter=1ms,seed=7'
//
// With -debug-addr a live debug server exposes Prometheus metrics
// (/metrics), a JSON session snapshot (/status), a liveness probe
// (/healthz) and net/http/pprof while training runs:
//
//	nstrain -dataset reddit -epochs 100 -debug-addr :8080 &
//	curl localhost:8080/metrics
//
// With -critpath every message carries a causal trace context and each epoch
// closes with a critical-path extraction; the run ends with a "why was this
// epoch slow" report, /critpath serves the per-epoch paths, and the Chrome
// trace (-trace) gains cross-worker message arrows. With -watch-rules an
// anomaly watchdog evaluates threshold rules over the epoch stream and
// serves its verdict on /healthwatch:
//
//	nstrain -dataset reddit -epochs 30 -critpath -watch-rules 'regress=1.5,straggler=3.0'
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"neutronstar"
	"neutronstar/internal/engine"
	"neutronstar/internal/obs"
)

// engineNames lists the accepted -engine values, straight from the engine
// package's mode registry so the help text can never drift from the code.
func engineNames() []string { return engine.ModeNames() }

func main() {
	var (
		dsName    = flag.String("dataset", "cora", "dataset name ("+strings.Join(neutronstar.DatasetNames(), ", ")+")")
		engName   = flag.String("engine", "hybrid", "engine: "+strings.Join(engineNames(), ", "))
		model     = flag.String("model", "gcn", "model: gcn, gin, gat")
		workers   = flag.Int("workers", 4, "simulated cluster size")
		epochs    = flag.Int("epochs", 30, "training epochs")
		layers    = flag.Int("layers", 0, "propagation depth L (0 = the paper's default of 2)")
		network   = flag.String("network", "local", "network profile: local, ecs, ibv")
		lr        = flag.Float64("lr", 0.01, "learning rate")
		seed      = flag.Uint64("seed", 1, "random seed")
		opt       = flag.Bool("optimized", true, "enable ring/lock-free/overlap optimisations")
		repBudget = flag.Int64("rep-budget", 0, "per-worker compressed replica byte budget for deprep/hybrid4 (0 = unlimited)")
		repQuant  = flag.String("rep-quant", "off", "replica feature storage for deprep/hybrid4: off, fp16, int8")
		ckptDir   = flag.String("ckpt-dir", "", "checkpoint directory (empty disables checkpointing)")
		ckptEvery = flag.Int("ckpt-every", 5, "checkpoint cadence in epochs")
		resume    = flag.Bool("resume", false, "resume from the newest snapshot in -ckpt-dir")
		saveModel = flag.String("save-model", "", "write the trained model parameters to this file for nsserve (gob)")
		faultSpec = flag.String("fault-spec", "", "network fault injection, e.g. 'drop=0.05,jitter=1ms,seed=7'")
		trace     = flag.String("trace", "", "write a Chrome trace of worker activity to this file")
		critPath  = flag.Bool("critpath", false, "record causal traces and report each epoch's critical path and stragglers")
		watchSpec = flag.String("watch-rules", "", "anomaly watchdog rules, e.g. 'stall=30s,regress=1.5,straggler=3.0' or 'default'")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /status, /epochs, /critpath, /healthwatch, /timeline, /healthz and pprof on this address (e.g. :8080)")
		logJSON   = flag.Bool("log-json", false, "emit log lines as JSON instead of key=value text")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()
	if err := validateFlags(*dsName, *workers, *epochs, *layers, *ckptDir, *ckptEvery, *resume); err != nil {
		fmt.Fprintf(os.Stderr, "nstrain: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	// Malformed watch rules are a usage error: reject them before building
	// the cluster, with the parser's explanation of what a valid spec is. So
	// are serving rules: nstrain serves nothing, so they could never fire.
	usage := func(err error) {
		fmt.Fprintf(os.Stderr, "nstrain: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if rules, err := obs.ParseWatchRules(*watchSpec); err != nil {
		usage(fmt.Errorf("-watch-rules: %w", err))
	} else if rules.WatchesServing() {
		usage(fmt.Errorf("-watch-rules %q: slo_p99, slo_window and hitrate watch a server; nstrain evaluates stall, regress, straggler and window", *watchSpec))
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		usage(fmt.Errorf("-log-level: %w", err))
	}

	log := obs.NewLogger(os.Stdout, *logJSON, level)
	fail := func(err error) {
		log.Error("fatal", "err", err)
		os.Exit(1)
	}

	ds, err := neutronstar.LoadDataset(*dsName)
	if err != nil {
		fail(err)
	}
	log.Info("dataset loaded", "dataset", ds.Name(),
		"vertices", ds.NumVertices(), "edges", ds.NumEdges())

	s, err := neutronstar.NewSession(ds, neutronstar.Config{
		Workers: *workers,
		Engine:  neutronstar.EngineKind(*engName),
		Model:   neutronstar.ModelKind(*model),
		Network: neutronstar.NetworkKind(*network),
		Layers:  *layers,
		Ring:    *opt, LockFree: *opt, Overlap: *opt,
		LR:             *lr,
		Seed:           *seed,
		RepBudgetBytes: *repBudget,
		RepQuant:       *repQuant,
		CkptDir:        *ckptDir,
		CkptEvery:      *ckptEvery,
		FaultSpec:      *faultSpec,
		CritPath:       *critPath,
		WatchRules:     *watchSpec,
		// Only the Chrome trace needs the span log: /status reads the flight
		// recorder, and a tracer keeps every span of the run in memory.
		Metrics: *trace != "",
	})
	if err != nil {
		fail(err)
	}
	defer s.Close()
	s.Watchdog().SetLogger(log)

	if *faultSpec != "" {
		log.Info("fault injection active", "spec", *faultSpec)
	}

	startEpoch := 0
	if *resume {
		resumed, err := s.Resume()
		if err != nil {
			fail(err)
		}
		if resumed {
			hist := s.History()
			startEpoch = hist[len(hist)-1].Epoch
			log.Info("resumed from snapshot", "dir", *ckptDir,
				"epoch", startEpoch, "loss", hist[len(hist)-1].Loss)
		} else {
			log.Info("no snapshot to resume; starting fresh", "dir", *ckptDir)
		}
	}

	if *debugAddr != "" {
		obs.RegisterBuildInfo(obs.Default())
		// Periodic sampling keeps /timeline moving between epoch barriers
		// (long epochs would otherwise leave the dashboard flat).
		s.MetricHistory().Start(obs.DefaultHistoryStep)
		srv, err := obs.NewServer(*debugAddr, obs.Default(), obs.Endpoints{
			Status:      func() any { return s.Status() },
			Epochs:      func() any { return s.FlightTimeline() },
			CritPath:    func() any { return s.CritPathTimeline() },
			HealthWatch: func() any { return s.HealthWatch() },
			History:     s.MetricHistory(),
		})
		if err != nil {
			fail(err)
		}
		defer srv.Close()
		log.Info("debug server listening", "addr", srv.Addr(),
			"endpoints", "/metrics /status /epochs /critpath /healthwatch /timeline /healthz /debug/pprof/")
	}

	cached, communicated := s.DependencySummary()
	for l := range cached {
		log.Info("dependency plan", "layer", l+1,
			"cached", cached[l], "communicated", communicated[l])
	}
	log.Info("planning done", "replica_kb", float64(s.CacheBytes())/1024,
		"planning_ms", s.PreprocessMillis())
	if rf := s.ReplicationFactor(); rf > 1 {
		log.Info("replication pass", "factor", rf, "quant", *repQuant)
	}

	for i := startEpoch; i < *epochs; i++ {
		ep := s.TrainEpoch()
		if ep.CkptErr != nil {
			log.Warn("checkpoint save failed", "epoch", ep.Epoch, "err", ep.CkptErr)
		}
		if ep.Epoch%5 == 0 || ep.Epoch == 1 || ep.Epoch == *epochs {
			log.Info("epoch done", "epoch", ep.Epoch, "loss", ep.Loss, "ms", ep.Millis)
		} else {
			log.Debug("epoch done", "epoch", ep.Epoch, "loss", ep.Loss, "ms", ep.Millis)
		}
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fail(err)
		}
		if err := s.Metrics().WriteChromeTrace(f, nil); err != nil {
			fail(err)
		}
		f.Close()
		log.Info("trace written", "path", *trace)
	}
	// End-of-run flight report: where the epochs went (per stage), how large
	// the messages were, and how well the planner's cost model predicted it.
	for _, sb := range s.StageReport() {
		log.Info("stage", "name", sb.Stage, "sec_per_epoch", sb.Seconds,
			"bytes_per_epoch", sb.Bytes, "msgs_per_epoch", sb.Msgs)
	}
	msgBytes := obs.Default().Histogram("ns_comm_message_bytes",
		"Wire size of sent messages.", obs.SizeBuckets)
	if msgBytes.Count() > 0 {
		log.Info("message sizes", "count", msgBytes.Count(),
			"p50_bytes", msgBytes.Quantile(0.5), "p90_bytes", msgBytes.Quantile(0.9),
			"p99_bytes", msgBytes.Quantile(0.99))
	}
	for _, line := range s.CostSummary() {
		log.Info("cost model", "summary", line)
	}
	if *critPath {
		for _, line := range s.SlowEpochReport() {
			log.Info("slow epoch", "summary", line)
		}
	}
	log.Info("accuracy", "train", s.Accuracy(neutronstar.SplitTrain),
		"val", s.Accuracy(neutronstar.SplitVal),
		"test", s.Accuracy(neutronstar.SplitTest))
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			fail(err)
		}
		if err := s.SaveModel(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		log.Info("model saved", "path", *saveModel, "model", *model)
	}
}

// validateFlags rejects nonsensical flag combinations up front with a usage
// error, instead of letting them surface as a panic or confusing failure deep
// inside the engine.
func validateFlags(dataset string, workers, epochs, layers int, ckptDir string, ckptEvery int, resume bool) error {
	if strings.TrimSpace(dataset) == "" {
		return fmt.Errorf("-dataset must not be empty (available: %s)", strings.Join(neutronstar.DatasetNames(), ", "))
	}
	if workers <= 0 {
		return fmt.Errorf("-workers must be positive, got %d", workers)
	}
	if epochs <= 0 {
		return fmt.Errorf("-epochs must be positive, got %d", epochs)
	}
	if layers < 0 {
		return fmt.Errorf("-layers must be non-negative, got %d", layers)
	}
	if ckptEvery <= 0 {
		return fmt.Errorf("-ckpt-every must be positive, got %d", ckptEvery)
	}
	if resume && ckptDir == "" {
		return fmt.Errorf("-resume requires -ckpt-dir")
	}
	return nil
}
