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
// Every epoch closes with a critical-path extraction: the run ends with a
// "why was this epoch slow" report, each /epochs record carries its epoch's
// path, and the Chrome trace (-trace) draws cross-worker message arrows. With
// -watch-rules an anomaly watchdog evaluates threshold rules over the epoch
// stream and serves its verdict on /healthwatch:
//
//	nstrain -dataset reddit -epochs 30 -watch-rules 'regress=1.5,straggler=3.0'
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"slices"
	"strings"

	"neutronstar"
	"neutronstar/internal/comm"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// The accepted -engine, -model and -network values, straight from the code
// that interprets them, so neither the help text nor the check can drift.
var (
	engineNames  = engine.ModeNames()
	modelNames   = modelKindNames()
	networkNames = profileNames()
)

func profileNames() []string {
	var names []string
	for _, p := range comm.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

func modelKindNames() []string {
	var names []string
	for _, k := range nn.ModelKinds() {
		names = append(names, string(k))
	}
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is nstrain with its process boundary as parameters: log lines go to
// stdout, usage errors to stderr. It returns 2 for a usage error, found
// before any work, and 1 for a failure after it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nstrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName    = fs.String("dataset", "cora", "dataset name ("+strings.Join(neutronstar.DatasetNames(), ", ")+")")
		engName   = fs.String("engine", "hybrid", "engine: "+strings.Join(engineNames, ", "))
		model     = fs.String("model", "gcn", "model: "+strings.Join(modelNames, ", "))
		workers   = fs.Int("workers", 4, "simulated cluster size")
		epochs    = fs.Int("epochs", 30, "training epochs")
		layers    = fs.Int("layers", 0, "propagation depth L (0 = the paper's default of 2)")
		network   = fs.String("network", "local", "network profile: "+strings.Join(networkNames, ", "))
		lr        = fs.Float64("lr", 0.01, "learning rate")
		seed      = fs.Uint64("seed", 1, "random seed")
		opt       = fs.Bool("optimized", true, "enable ring/lock-free/overlap optimisations")
		repBudget = fs.Int64("rep-budget", 0, "per-worker replica byte budget for deprep/hybrid4 (0 = unlimited)")
		ckptDir   = fs.String("ckpt-dir", "", "checkpoint directory (empty disables checkpointing)")
		ckptEvery = fs.Int("ckpt-every", 5, "checkpoint cadence in epochs")
		resume    = fs.Bool("resume", false, "resume from the newest snapshot in -ckpt-dir")
		saveModel = fs.String("save-model", "", "write the trained model to this file for nsserve (snapshot format, as in -ckpt-dir)")
		faultSpec = fs.String("fault-spec", "", "network fault injection, e.g. 'drop=0.05,jitter=1ms,seed=7'")
		trace     = fs.String("trace", "", "write a Chrome trace of worker activity to this file")
		watchSpec = fs.String("watch-rules", "", "anomaly watchdog rules, e.g. 'stall=30s,regress=1.5,straggler=3.0' or 'default'")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /status, /epochs, /healthwatch, /timeline, /healthz and pprof on this address (e.g. :8080)")
		logJSON   = fs.Bool("log-json", false, "emit log lines as JSON instead of key=value text")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "nstrain: %v\n", err)
		fs.Usage()
		return 2
	}
	if err := validateFlags(*dsName, *workers, *epochs, *layers, *lr, *ckptDir, *ckptEvery, *resume); err != nil {
		return usage(err)
	}
	for _, f := range []struct {
		name, value string
		valid       []string
	}{{"-engine", *engName, engineNames}, {"-model", *model, modelNames}, {"-network", *network, networkNames}} {
		if !slices.Contains(f.valid, f.value) {
			return usage(fmt.Errorf("%s %q: valid values are %s", f.name, f.value, strings.Join(f.valid, ", ")))
		}
	}
	// Malformed watch rules are a usage error: reject them before building
	// the cluster, with the parser's explanation of what a valid spec is. So
	// are serving rules: nstrain serves nothing, so they could never fire.
	if rules, err := obs.ParseWatchRules(*watchSpec); err != nil {
		return usage(fmt.Errorf("-watch-rules: %w", err))
	} else if rules.WatchesServing() {
		return usage(fmt.Errorf("-watch-rules %q: slo_p99, slo_window and hitrate watch a server; nstrain evaluates stall, regress, straggler and window", *watchSpec))
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return usage(fmt.Errorf("-log-level: %w", err))
	}

	log := obs.NewLogger(stdout, *logJSON, level)
	fail := func(err error) int {
		log.Error("fatal", "err", err)
		return 1
	}

	ds, err := neutronstar.LoadDataset(*dsName)
	if err != nil {
		return fail(err)
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
		CkptDir:        *ckptDir,
		CkptEvery:      *ckptEvery,
		FaultSpec:      *faultSpec,
		WatchRules:     *watchSpec,
		// Only the Chrome trace needs the span log: /status reads the flight
		// recorder, and a tracer keeps every span of the run in memory.
		Metrics: *trace != "",
	})
	if err != nil {
		return fail(err)
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
			return fail(err)
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
		// /timeline samples the default registry — the message-size and
		// fault families on a training process, and the serving families
		// when ServeConfig shares it. Periodic sampling keeps it moving
		// between epoch barriers.
		s.MetricHistory().Start(obs.DefaultHistoryStep)
		srv, err := obs.NewServer(*debugAddr, obs.Default(), obs.Endpoints{
			Status:      func() any { return s.Status() },
			Epochs:      func() any { return s.FlightTimeline() },
			HealthWatch: func() any { return s.HealthWatch() },
			History:     s.MetricHistory(),
		})
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		log.Info("debug server listening", "addr", srv.Addr(),
			"endpoints", "/metrics /status /epochs /healthwatch /timeline /healthz /debug/pprof/")
	}

	cached, communicated := s.DependencySummary()
	for l := range cached {
		log.Info("dependency plan", "layer", l+1,
			"cached", cached[l], "communicated", communicated[l])
	}
	log.Info("planning done", "replica_kb", float64(s.CacheBytes())/1024,
		"planning_ms", s.PreprocessMillis())
	if rf := s.ReplicationFactor(); rf > 1 {
		log.Info("replication pass", "factor", rf)
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
			return fail(err)
		}
		if err := s.Metrics().WriteChromeTrace(f, nil); err != nil {
			return fail(err)
		}
		f.Close()
		log.Info("trace written", "path", *trace)
	}
	// End-of-run flight report: where the epochs went (per stage), how large
	// the messages were, how well the planner's cost model predicted it, and
	// why the slowest epoch was slow.
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
	for _, line := range s.SlowEpochReport() {
		log.Info("slow epoch", "summary", line)
	}
	log.Info("accuracy", "train", s.Accuracy(neutronstar.SplitTrain),
		"val", s.Accuracy(neutronstar.SplitVal),
		"test", s.Accuracy(neutronstar.SplitTest))
	if *saveModel != "" {
		f, err := os.Create(*saveModel)
		if err != nil {
			return fail(err)
		}
		if err := s.SaveModel(f); err != nil {
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		log.Info("model saved", "path", *saveModel, "model", *model)
	}
	return 0
}

// validateFlags rejects nonsensical flag combinations up front with a usage
// error, instead of letting them surface as a panic or confusing failure deep
// inside the engine.
func validateFlags(dataset string, workers, epochs, layers int, lr float64, ckptDir string, ckptEvery int, resume bool) error {
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
	// NaN and +Inf would train to a NaN loss, a negative rate ascends the
	// loss, and 0 would silently train at the engine's default.
	if !(lr > 0) || lr > math.MaxFloat32 {
		return fmt.Errorf("-lr must be positive and finite as a float32, got %g", lr)
	}
	if ckptEvery <= 0 {
		return fmt.Errorf("-ckpt-every must be positive, got %d", ckptEvery)
	}
	if resume && ckptDir == "" {
		return fmt.Errorf("-resume requires -ckpt-dir")
	}
	return nil
}
