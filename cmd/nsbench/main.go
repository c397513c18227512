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
// Performance measurement lives in benchmark/ (bash benchmark/run.sh), not
// here; -trace writes a Chrome trace of the experiment engines.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync/atomic"

	"neutronstar/internal/experiments"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// experimentNames lists every -exp value in the order "all" runs them.
var experimentNames = []string{"table2", "fig2a", "fig2b", "fig2c", "fig9", "table3",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table4", "table5",
	"ablations"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "", "experiment: "+strings.Join(experimentNames, " ")+" all")
		workers   = fs.Int("workers", 8, "simulated cluster size")
		epochs    = fs.Int("epochs", 3, "measured epochs per configuration")
		graphs    = fs.String("graphs", "", "comma-separated dataset subset (default: experiment-specific)")
		quick     = fs.Bool("quick", false, "cut-down scale for a fast smoke run")
		trace     = fs.String("trace", "", "write a Chrome trace of all experiment engines to this file")
		debugAddr = fs.String("debug-addr", "", "serve /metrics, /status, /healthz and pprof on this address (e.g. :8080)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "nsbench: "+format+"\n", a...)
		return 2
	}
	if *exp == "" {
		fs.Usage()
		return usage("-exp is required")
	}
	names := []string{*exp}
	if *exp == "all" {
		names = experimentNames
	} else if !slices.Contains(experimentNames, *exp) {
		return usage("unknown experiment %q (want one of: %s all)", *exp, strings.Join(experimentNames, " "))
	}
	// Reject nonsensical scales up front: a negative worker count would
	// otherwise surface as a partitioner panic several layers down.
	if *workers < 0 {
		return usage("-workers must be non-negative, got %d", *workers)
	}
	if *epochs < 0 {
		return usage("-epochs must be non-negative, got %d", *epochs)
	}
	if *graphs != "" {
		for _, g := range strings.Split(*graphs, ",") {
			if strings.TrimSpace(g) == "" {
				return usage("-graphs contains an empty dataset name: %q", *graphs)
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
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "debug server on http://%s (/metrics /status /healthz /debug/pprof/)\n", srv.Addr())
	}
	if *trace != "" {
		tracer := obs.NewTracer()
		experiments.SetTracer(tracer)
		defer func() {
			f, err := os.Create(*trace)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			if err := tracer.WriteChromeTrace(f, nil); err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			fmt.Fprintf(stdout, "trace written to %s\n", *trace)
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

	for _, name := range names {
		current.Store(name)
		runExperiment(stdout, name, sc, *quick)
	}
	return 0
}

// runExperiment prints one experiment; name is one of experimentNames.
func runExperiment(out io.Writer, name string, sc experiments.Scale, quick bool) {
	fmt.Fprintf(out, "==== %s (workers=%d epochs=%d graphs=%v) ====\n", name, sc.Workers, sc.Epochs, sc.Graphs)
	printRows := func(rows []experiments.Row) {
		for _, r := range rows {
			fmt.Fprintln(out, "  "+r.Format())
		}
	}
	switch name {
	case "table2":
		for _, line := range experiments.Table2() {
			fmt.Fprintln(out, "  "+line)
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
		fmt.Fprintf(out, "  (runtime of %d epochs; the paper reports 100)\n", epochs)
		printRows(experiments.Table3(sc, epochs))
	case "fig10":
		printRows(experiments.Fig10(sc))
	case "fig11":
		fmt.Fprintln(out, "  GCN on reddit:")
		printRows(experiments.Fig11(sc, nn.GCN, "reddit"))
		if !quick {
			fmt.Fprintln(out, "  GAT on orkut:")
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
			fmt.Fprintf(out, "  %-12s accel_util=%.2f host_util=%.2f sample_util=%.2f net_peak=%.1fMB/s net_cv=%.2f recv=%.1fMB\n",
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
			fmt.Fprintf(out, "  %-18s best=%.4f time_to_95%%=%.1fs\n", c.System, c.Best, c.TimeToTarget)
			for _, p := range c.Points {
				fmt.Fprintf(out, "      t=%6.1fs epoch=%3d acc=%.4f\n", p.Seconds, p.Epoch, p.Accuracy)
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
	}
}
