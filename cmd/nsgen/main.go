// Command nsgen inspects the built-in synthetic datasets: it prints the
// Table 2 style registry listing, detailed structural statistics for a
// single dataset, or writes one to a directory and describes it back.
//
// Usage:
//
//	nsgen -table2
//	nsgen -dataset reddit [-parts 8]
//	nsgen -dataset reddit -export DIR
//	nsgen -import DIR
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"neutronstar/internal/dataset"
	"neutronstar/internal/graph"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nsgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table2    = fs.Bool("table2", false, "print the dataset registry (paper Table 2)")
		dsName    = fs.String("dataset", "", "print detailed stats for one dataset")
		parts     = fs.Int("parts", 8, "partition count for cut statistics")
		exportDir = fs.String("export", "", "write the dataset (-dataset) to this directory")
		importDir = fs.String("import", "", "load and describe a dataset directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "nsgen: "+format+"\n", a...)
		return 2
	}
	modes := 0
	for _, set := range []bool{*table2, *dsName != "", *importDir != ""} {
		if set {
			modes++
		}
	}
	switch {
	case *exportDir != "" && *dsName == "":
		return usage("-export writes the -dataset dataset; name one")
	case modes == 0:
		fs.Usage()
		return usage("one of -table2, -dataset or -import is required")
	case modes > 1:
		return usage("-table2, -dataset and -import are exclusive")
	case *parts < 1:
		return usage("-parts must be at least 1, got %d", *parts)
	}
	log := obs.NewLogger(stderr, false, slog.LevelInfo)
	fail := func(err error) int {
		log.Error("fatal", "err", err)
		return 1
	}

	switch {
	case *importDir != "":
		ds, err := dataset.LoadDir(*importDir)
		if err != nil {
			return fail(err)
		}
		describe(stdout, ds.Spec.Name, ds)
	case *table2:
		fmt.Fprintln(stdout, dataset.Table2Header())
		for _, name := range append(dataset.BigGraphNames(), dataset.CitationNames()...) {
			ds, err := dataset.LoadByName(name)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, dataset.Table2Row(ds))
		}
	default:
		ds, err := dataset.LoadByName(*dsName)
		if err != nil {
			return fail(err)
		}
		if *exportDir != "" {
			if err := ds.Save(*exportDir); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "exported %s to %s\n", *dsName, *exportDir)
			return 0
		}
		describe(stdout, *dsName, ds)
		for _, algo := range []partition.Algorithm{partition.Chunk, partition.Metis, partition.Fennel} {
			p, err := partition.New(algo, ds.Graph, *parts)
			if err != nil {
				return fail(err)
			}
			q := partition.Evaluate(p, ds.Graph)
			fmt.Fprintf(stdout, "%-7s %d parts: cut=%d (%.1f%%) imbalance=%.2f\n",
				algo, *parts, q.EdgeCut, 100*q.CutRatio, q.Imbalance)
		}
	}
	return 0
}

// describe prints a dataset's graph statistics, shapes and split sizes.
func describe(w io.Writer, name string, ds *dataset.Dataset) {
	fmt.Fprintf(w, "%s: %s\n", name, graph.ComputeStats(ds.Graph))
	fmt.Fprintf(w, "features: %dx%d, classes: %d, train/val/test: %d/%d/%d\n",
		ds.Features.Rows(), ds.Features.Cols(), ds.Spec.NumClasses,
		count(ds.TrainMask), count(ds.ValMask), count(ds.TestMask))
}

// count returns the number of set entries of a split mask.
func count(mask []bool) int {
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}
