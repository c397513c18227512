// Command nsbench regenerates the paper's tables and figures: each -exp
// value names one entry of experiments.All, the evaluation section's
// experiment table, and nsbench is that table's only front-end; see
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
	"neutronstar/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, x := range experiments.All {
		names = append(names, x.Name)
	}
	fs := flag.NewFlagSet("nsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp       = fs.String("exp", "", "experiment: "+strings.Join(names, " ")+" all")
		workers   = fs.Int("workers", 0, "simulated cluster size (0: the scale's own, 8 or 4 with -quick)")
		epochs    = fs.Int("epochs", 0, "measured epochs per configuration (0: the scale's own, 3 or 1 with -quick)")
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
	selected := experiments.All
	if *exp != "all" {
		i := slices.Index(names, *exp)
		if i < 0 {
			return usage("unknown experiment %q (want one of: %s all)", *exp, strings.Join(names, " "))
		}
		selected = selected[i : i+1]
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
	if *trace != "" {
		sc.Tracer = obs.NewTracer()
		defer func() {
			f, err := os.Create(*trace)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			if err := sc.Tracer.WriteChromeTrace(f, nil); err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			fmt.Fprintf(stdout, "trace written to %s\n", *trace)
		}()
	}

	for _, x := range selected {
		current.Store(x.Name)
		fmt.Fprintf(stdout, "==== %s (workers=%d epochs=%d graphs=%v) ====\n", x.Name, sc.Workers, sc.Epochs, sc.Graphs)
		for _, line := range x.Run(sc) {
			fmt.Fprintln(stdout, "  "+line)
		}
	}
	return 0
}
