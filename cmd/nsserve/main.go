// Command nsserve answers online inference queries (predictions, embeddings,
// link scores) over a trained model, with GLT-style decoupled extraction and
// compute pools, micro-batching, and a byte-budgeted embedding cache.
//
// Serve a model trained and saved by nstrain:
//
//	nstrain -dataset cora -model gcn -epochs 30 -save-model /tmp/gcn.model
//	nsserve -dataset cora -model gcn -load-model /tmp/gcn.model -addr :8090
//
// Or train in-process first, then serve the live parameters:
//
//	nsserve -dataset cora -model gcn -train 30 -addr :8090
//
// Endpoints: POST /predict /embed /linkscore (JSON), GET /stats /healthz
// /metrics /timeline /healthwatch. Query it with curl, drive sustained load
// with nsload, or watch it live with nstat:
//
//	curl -s localhost:8090/predict -d '{"vertices":[0,1,2]}'
//	nsload -addr localhost:8090 -requests 500 -concurrency 8
//	nstat -addr localhost:8090
//
// Every query response carries a Server-Timing header with the request's
// queue/cache/extract/compute breakdown and an X-NS-Trace-Id correlating it
// with latency-histogram exemplars and the -trace Chrome export.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neutronstar"
	"neutronstar/internal/obs"
	"neutronstar/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is nsserve with its process boundary as parameters: log lines go to
// stdout, usage errors to stderr. It returns 2 for a usage error, found
// before any work, and 1 for a failure after it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nsserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName    = fs.String("dataset", "cora", "dataset name ("+strings.Join(neutronstar.DatasetNames(), ", ")+")")
		model     = fs.String("model", "gcn", "model: gcn, gin, gat, sage (must match the saved model)")
		layers    = fs.Int("layers", 0, "propagation depth L (0 = default 2; must match the saved model)")
		workers   = fs.Int("workers", 1, "simulated cluster size for the backing session")
		seed      = fs.Uint64("seed", 1, "session seed (also folded into sampled-query RNGs)")
		loadModel = fs.String("load-model", "", "serve parameters from this file (nstrain -save-model output or any -ckpt-dir snapshot)")
		trainN    = fs.Int("train", 0, "train this many epochs in-process before serving")
		lr        = fs.Float64("lr", 0.01, "learning rate for -train")

		addr       = fs.String("addr", ":8090", "HTTP listen address")
		maxBatch   = fs.Int("max-batch", 32, "micro-batch flush threshold in queried vertices")
		maxWait    = fs.Duration("max-wait", 2*time.Millisecond, "micro-batch flush deadline")
		cacheBytes = fs.Int64("cache-bytes", 8<<20, "embedding cache budget in bytes (0 disables)")
		extractW   = fs.Int("extract-workers", 2, "extraction (graph walk) pool size")
		computeW   = fs.Int("compute-workers", 2, "compute (NN forward) pool size")

		watchSpec = fs.String("watch-rules", "", "serving SLO rules, e.g. 'slo_p99=250ms,hitrate=0.3,slo_window=30s' (empty disables)")
		trace     = fs.String("trace", "", "write a Chrome trace of the extract/compute pools to this file on shutdown")

		logJSON  = fs.Bool("log-json", false, "emit log lines as JSON instead of key=value text")
		logLevel = fs.String("log-level", "info", "log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Malformed watch rules are a usage error, and so are the epoch rules:
	// nsserve watches a server, and no epoch completes while it serves.
	usage := func(err error) int {
		fmt.Fprintf(stderr, "nsserve: %v\n", err)
		fs.Usage()
		return 2
	}
	if rules, err := obs.ParseWatchRules(*watchSpec); err != nil {
		return usage(fmt.Errorf("-watch-rules: %w", err))
	} else if rules.WatchesEpochs() {
		return usage(fmt.Errorf("-watch-rules %q: stall, regress, straggler and window watch training epochs; nsserve evaluates slo_p99, slo_window and hitrate", *watchSpec))
	}
	// NaN and +Inf would train to a NaN loss, a negative rate ascends the
	// loss, and 0 would silently train at the engine's default.
	if !(*lr > 0) || *lr > math.MaxFloat32 {
		return usage(fmt.Errorf("-lr must be positive and finite as a float32, got %g", *lr))
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
	if *loadModel == "" && *trainN <= 0 {
		return fail(fmt.Errorf("need a model: pass -load-model FILE or -train EPOCHS"))
	}

	ds, err := neutronstar.LoadDataset(*dsName)
	if err != nil {
		return fail(err)
	}
	log.Info("dataset loaded", "dataset", ds.Name(),
		"vertices", ds.NumVertices(), "edges", ds.NumEdges())

	s, err := neutronstar.NewSession(ds, neutronstar.Config{
		Workers:    *workers,
		Model:      neutronstar.ModelKind(*model),
		Layers:     *layers,
		LR:         *lr,
		Seed:       *seed,
		WatchRules: *watchSpec,
	})
	if err != nil {
		return fail(err)
	}
	defer s.Close()
	s.Watchdog().SetLogger(log)

	if *loadModel != "" {
		f, err := os.Open(*loadModel)
		if err != nil {
			return fail(err)
		}
		err = s.LoadModel(f)
		f.Close()
		if err != nil {
			return fail(fmt.Errorf("loading %s (does -model/-layers match how it was trained?): %w", *loadModel, err))
		}
		log.Info("model loaded", "path", *loadModel, "model", *model)
	}
	if *trainN > 0 {
		eps := s.Train(*trainN)
		last := eps[len(eps)-1]
		log.Info("trained", "epochs", *trainN, "final_loss", last.Loss,
			"test_accuracy", s.Accuracy(neutronstar.SplitTest))
	}

	cfg := s.ServeConfig()
	cfg.MaxBatch = *maxBatch
	cfg.MaxWait = *maxWait
	cfg.CacheBytes = *cacheBytes
	cfg.ExtractWorkers = *extractW
	cfg.ComputeWorkers = *computeW
	cfg.Seed = *seed
	var tracer *obs.Tracer
	if *trace != "" {
		tracer = obs.NewTracer()
		cfg.Tracer = tracer
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return fail(err)
	}
	defer srv.Close()

	// The session's metric history, sampled every second, is behind
	// /timeline; its watchdog evaluates the SLO rules on every sample and
	// is behind /healthwatch.
	s.MetricHistory().Start(obs.DefaultHistoryStep)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/timeline", obs.TimelineHandler(s.MetricHistory()))
	mux.HandleFunc("/healthwatch", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.HealthWatch())
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Info("serving", "addr", ln.Addr().String(), "model", *model,
		"version", srv.ModelVersion(), "max_batch", *maxBatch, "max_wait", maxWait.String(),
		"cache_bytes", *cacheBytes, "extract_workers", *extractW, "compute_workers", *computeW,
		"watch_rules", *watchSpec,
		"endpoints", "/predict /embed /linkscore /stats /timeline /healthwatch /healthz /metrics")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-serveErr:
		return fail(err)
	case <-sig:
	}
	log.Info("shutting down")
	// Drain: stop accepting, let requests already accepted get their
	// answers (bounded by drainTimeout), then close the pipeline.
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	if err := hs.Shutdown(ctx); err != nil {
		log.Warn("drain cut short", "err", err)
	}
	cancel()
	srv.Close()
	if tracer != nil {
		if err := writeServeTrace(*trace, tracer, *extractW); err != nil {
			log.Error("trace export failed", "path", *trace, "err", err)
		} else {
			log.Info("trace written", "path", *trace, "spans", len(tracer.Snapshot()))
		}
	}
	st := srv.Stats()
	log.Info("served", "requests", st.Requests, "errors", st.Errors,
		"batches", st.Batches, "cache_hits", st.Cache.Hits, "cache_misses", st.Cache.Misses)
	return 0
}

// drainTimeout bounds how long shutdown waits for in-flight requests.
const drainTimeout = 10 * time.Second

// writeServeTrace exports the serving pools' spans as a Chrome trace, naming
// the rows after their pool: extract workers first, compute workers after
// (the row layout serve.Config.Tracer documents).
func writeServeTrace(path string, tracer *obs.Tracer, extractWorkers int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteChromeTrace(f, func(worker int) string {
		if worker < extractWorkers {
			return fmt.Sprintf("extract-%d", worker)
		}
		return fmt.Sprintf("compute-%d", worker-extractWorkers)
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
