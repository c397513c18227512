// Command nsbench regenerates the paper's tables and figures. Each -exp
// value corresponds to one table/figure of the evaluation section; see
// EXPERIMENTS.md for the mapping and the paper-reported numbers.
//
// Usage:
//
//	nsbench -exp fig2a
//	nsbench -exp fig10 -workers 8 -graphs google,reddit
//	nsbench -exp all -quick
//
// With -json the paper experiments are skipped and the fixed perf-smoke
// pipeline runs instead, writing a schema-versioned BENCH.json document
// (per-stage medians, traffic, cost-model residuals, straggler indices and
// per-run critical paths) for tools/benchdiff. Alongside it, -critpath
// writes the critical-path report as standalone JSON and -trace a Chrome
// trace of the bench engines with cross-worker flow arrows:
//
//	nsbench -json BENCH.json -workers 4 -trace trace.json -critpath critpath.json
//	nsbench -json BENCH.json -workers 4 -policy deptp
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"

	"neutronstar/internal/bench"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/experiments"
	"neutronstar/internal/metrics"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

func main() {
	var (
		exp       = flag.String("exp", "", "experiment: table2 fig2a fig2b fig2c fig9 table3 fig10 fig11 fig12 fig13 fig14 fig15 table4 table5 ablations all")
		workers   = flag.Int("workers", 8, "simulated cluster size")
		epochs    = flag.Int("epochs", 3, "measured epochs per configuration")
		graphs    = flag.String("graphs", "", "comma-separated dataset subset (default: experiment-specific)")
		quick     = flag.Bool("quick", false, "cut-down scale for a fast smoke run")
		jsonOut   = flag.String("json", "", "write the perf-smoke BENCH.json document to this path and exit (ignores -exp)")
		policy    = flag.String("policy", "", "with -json, add extra <policy>-wN runs to the pipeline (comma-separated: "+strings.Join(engine.ModeNames(), ", ")+")")
		trace     = flag.String("trace", "", "write a Chrome trace of all experiment (or, with -json, bench) engines to this file")
		critPath  = flag.String("critpath", "", "with -json, also write the per-run critical-path report to this path")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /status, /healthz and pprof on this address (e.g. :8080)")
	)
	flag.Parse()
	if *critPath != "" && *jsonOut == "" {
		fmt.Fprintln(os.Stderr, "nsbench: -critpath requires -json (the report is produced by the perf-smoke pipeline)")
		os.Exit(2)
	}
	if *jsonOut != "" {
		if err := writeBenchDoc(*jsonOut, *workers, *trace, *critPath, *policy); err != nil {
			fmt.Fprintln(os.Stderr, "nsbench:", err)
			os.Exit(1)
		}
		return
	}
	if *policy != "" {
		fmt.Fprintln(os.Stderr, "nsbench: -policy requires -json (it extends the perf-smoke run set)")
		os.Exit(2)
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Reject nonsensical scales up front: a negative worker count would
	// otherwise surface as a partitioner panic several layers down.
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "nsbench: -workers must be non-negative, got %d\n", *workers)
		os.Exit(2)
	}
	if *epochs < 0 {
		fmt.Fprintf(os.Stderr, "nsbench: -epochs must be non-negative, got %d\n", *epochs)
		os.Exit(2)
	}
	if *graphs != "" {
		for _, g := range strings.Split(*graphs, ",") {
			if strings.TrimSpace(g) == "" {
				fmt.Fprintf(os.Stderr, "nsbench: -graphs contains an empty dataset name: %q\n", *graphs)
				os.Exit(2)
			}
		}
	}

	// current names the running experiment for the debug server's /status.
	var current atomic.Value
	current.Store("")
	if *debugAddr != "" {
		srv, err := obs.NewServer(*debugAddr, obs.Default(), obs.Endpoints{
			Status: func() any {
				return map[string]any{"experiment": current.Load()}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s (/metrics /status /healthz /debug/pprof/)\n", srv.Addr())
	}
	if *trace != "" {
		coll := metrics.NewCollector()
		experiments.SetCollector(coll)
		defer func() {
			f, err := os.Create(*trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			if err := coll.WriteChromeTrace(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			fmt.Printf("trace written to %s\n", *trace)
		}()
	}

	sc := experiments.DefaultScale()
	if *quick {
		sc = experiments.QuickScale()
	}
	if *workers > 0 {
		sc.Workers = *workers
	}
	if *epochs > 0 {
		sc.Epochs = *epochs
	}
	if *graphs != "" {
		sc.Graphs = strings.Split(*graphs, ",")
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table2", "fig2a", "fig2b", "fig2c", "fig9", "table3",
			"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table4", "table5",
			"ablations"}
	}
	for _, name := range names {
		current.Store(name)
		runExperiment(name, sc, *quick)
	}
}

// writeBenchDoc runs the fixed perf-smoke pipeline and writes BENCH.json.
// The workload and run set are pinned (see internal/bench) so documents from
// different commits are comparable; only the cluster size is adjustable.
// tracePath and critPathOut, when non-empty, additionally emit a Chrome
// trace of the bench engines and a standalone critical-path report.
func writeBenchDoc(path string, workers int, tracePath, critPathOut, policies string) error {
	if workers <= 0 {
		workers = 4
	}
	ds := dataset.Load(bench.BenchSpec())
	specs := bench.DefaultRuns(workers)
	if policies != "" {
		for _, policy := range strings.Split(policies, ",") {
			policy = strings.TrimSpace(policy)
			if policy == "" {
				return fmt.Errorf("-policy contains an empty policy name: %q", policies)
			}
			extra, err := bench.PolicyRun(policy, workers)
			if err != nil {
				return err
			}
			dup := false
			for _, s := range specs {
				if s.Name == extra.Name {
					dup = true // already in the set; don't run it twice
					break
				}
			}
			if !dup {
				specs = append(specs, extra)
			}
		}
	}
	var coll *metrics.Collector
	if tracePath != "" {
		coll = metrics.NewCollector()
		for i := range specs {
			specs[i].Collector = coll
		}
	}
	doc, err := bench.Execute(ds, specs)
	if err != nil {
		return err
	}
	if err := doc.Validate(); err != nil {
		return err
	}
	if err := doc.WriteFile(path); err != nil {
		return err
	}
	for _, r := range doc.Runs {
		line := fmt.Sprintf("%-14s wall_median=%.4fs epochs/s=%.2f bytes/epoch=%d coverage=%.3f",
			r.Name, r.WallMedianSeconds, r.EpochsPerSec, r.BytesPerEpoch, r.StageCoverage)
		if r.Workers > 1 {
			line += fmt.Sprintf(" straggler=%.2f", r.StragglerIndex)
		}
		if p := r.CritPath; p != nil {
			if label, share := p.Dominant(); label != "" {
				line += fmt.Sprintf(" critpath=%s@%.0f%%", label, 100*share)
			}
		}
		fmt.Println(line)
	}
	fmt.Printf("bench document written to %s\n", path)
	if coll != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := coll.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", tracePath)
	}
	if critPathOut != "" {
		if err := writeCritPathReport(critPathOut, doc); err != nil {
			return err
		}
		fmt.Printf("critical-path report written to %s\n", critPathOut)
	}
	return nil
}

// writeCritPathReport distils the document's causal fields into a standalone
// JSON report: per run, the straggler indices, the critical path, and its
// label breakdown — the artifact CI uploads next to the Chrome trace.
func writeCritPathReport(path string, doc *bench.Doc) error {
	type entry struct {
		Run            string             `json:"run"`
		Workers        int                `json:"workers"`
		WallMedian     float64            `json:"wall_median_seconds"`
		StragglerIndex float64            `json:"straggler_index"`
		BarrierShare   float64            `json:"barrier_share"`
		Dominant       string             `json:"dominant,omitempty"`
		DominantShare  float64            `json:"dominant_share,omitempty"`
		Breakdown      map[string]float64 `json:"breakdown,omitempty"`
		CritPath       *obs.CritPath      `json:"crit_path,omitempty"`
	}
	report := make([]entry, 0, len(doc.Runs))
	for _, r := range doc.Runs {
		e := entry{
			Run: r.Name, Workers: r.Workers, WallMedian: r.WallMedianSeconds,
			StragglerIndex: r.StragglerIndex, BarrierShare: r.BarrierShare,
			CritPath: r.CritPath,
		}
		if p := r.CritPath; p != nil {
			e.Breakdown = p.Breakdown()
			e.Dominant, e.DominantShare = p.Dominant()
		}
		report = append(report, e)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runExperiment(name string, sc experiments.Scale, quick bool) {
	fmt.Printf("==== %s (workers=%d epochs=%d graphs=%v) ====\n", name, sc.Workers, sc.Epochs, sc.Graphs)
	printRows := func(rows []experiments.Row) {
		for _, r := range rows {
			fmt.Println("  " + r.Format())
		}
	}
	switch name {
	case "table2":
		for _, line := range experiments.Table2() {
			fmt.Println("  " + line)
		}
	case "fig2a":
		printRows(experiments.Fig2a(sc))
	case "fig2b":
		printRows(experiments.Fig2b(sc))
	case "fig2c":
		printRows(experiments.Fig2c(sc))
	case "fig9":
		printRows(experiments.Fig9(sc))
	case "table3":
		epochs := 10
		if quick {
			epochs = 2
		}
		fmt.Printf("  (runtime of %d epochs; the paper reports 100)\n", epochs)
		printRows(experiments.Table3(sc, epochs))
	case "fig10":
		printRows(experiments.Fig10(sc))
	case "fig11":
		fmt.Println("  GCN on reddit:")
		printRows(experiments.Fig11(sc, nn.GCN, "reddit"))
		if !quick {
			fmt.Println("  GAT on orkut:")
			printRows(experiments.Fig11(sc, nn.GAT, "orkut"))
		}
	case "fig12":
		sizes := []int{1, 2, 4, 8, 16}
		if quick {
			sizes = []int{1, 2, 4}
		}
		gs := sc.Graphs
		if len(gs) > 4 {
			gs = []string{"pokec", "reddit", "orkut", "wiki"}
		}
		for _, g := range gs {
			printRows(experiments.Fig12(g, sizes, sc.Epochs))
		}
	case "fig13":
		graph := "orkut"
		if quick {
			graph = "google"
		}
		for _, rep := range experiments.Fig13(sc, graph) {
			fmt.Printf("  %-12s accel_util=%.2f host_util=%.2f sample_util=%.2f net_peak=%.1fMB/s net_cv=%.2f recv=%.1fMB\n",
				rep.System, rep.AcceleratorUtil, rep.HostUtil, rep.SampleUtil,
				rep.NetPeakMBs, rep.NetSmoothnessCV, rep.TotalRecvMB)
		}
	case "fig14":
		maxEpochs, evalEvery := 45, 5
		if quick {
			maxEpochs, evalEvery = 6, 3
		}
		curves := experiments.Fig14(sc, maxEpochs, evalEvery, 0.95)
		for _, c := range curves {
			fmt.Printf("  %-18s best=%.4f time_to_95%%=%.1fs\n", c.System, c.Best, c.TimeToTarget)
			for _, p := range c.Points {
				fmt.Printf("      t=%6.1fs epoch=%3d acc=%.4f\n", p.Seconds, p.Epoch, p.Accuracy)
			}
		}
	case "fig15":
		gs := sc.Graphs
		if len(gs) > 3 {
			gs = []string{"reddit", "orkut", "wiki"}
		}
		sc2 := sc
		sc2.Graphs = gs
		printRows(experiments.Fig15(sc2))
	case "table4":
		gs := sc.Graphs
		if len(gs) > 4 {
			gs = []string{"google", "pokec", "livejournal", "reddit"}
		}
		sc2 := sc
		sc2.Graphs = gs
		printRows(experiments.Table4(sc2))
	case "table5":
		printRows(experiments.Table5(sc.Epochs))
	case "ablations":
		graph := "reddit"
		if quick {
			graph = "google"
		}
		printRows(experiments.Ablations(sc, graph))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
		os.Exit(2)
	}
}
