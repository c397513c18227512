// Command nsgen inspects the built-in synthetic datasets: it prints the
// Table 2 style registry listing, or detailed structural statistics for a
// single dataset.
//
// Usage:
//
//	nsgen -table2
//	nsgen -dataset reddit
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"neutronstar/internal/dataset"
	"neutronstar/internal/graph"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
)

func main() {
	var (
		table2    = flag.Bool("table2", false, "print the dataset registry (paper Table 2)")
		dsName    = flag.String("dataset", "", "print detailed stats for one dataset")
		parts     = flag.Int("parts", 8, "partition count for cut statistics")
		exportDir = flag.String("export", "", "write the dataset (-dataset) to this directory")
		importDir = flag.String("import", "", "load and describe a dataset directory")
	)
	flag.Parse()
	log := obs.NewLogger(os.Stderr, false, slog.LevelInfo)
	fail := func(err error) {
		log.Error("fatal", "err", err)
		os.Exit(1)
	}

	switch {
	case *importDir != "":
		ds, err := dataset.LoadDir(*importDir)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s: %s\n", ds.Spec.Name, graph.ComputeStats(ds.Graph))
		fmt.Printf("features: %dx%d, classes: %d, train vertices: %d\n",
			ds.Features.Rows(), ds.Features.Cols(), ds.Spec.NumClasses, ds.TrainLabeledCount())
	case *table2:
		fmt.Println(dataset.Table2Header())
		for _, name := range append(dataset.BigGraphNames(), dataset.CitationNames()...) {
			ds, err := dataset.LoadByName(name)
			if err != nil {
				fail(err)
			}
			fmt.Println(dataset.Table2Row(ds))
		}
	case *dsName != "":
		ds, err := dataset.LoadByName(*dsName)
		if err != nil {
			fail(err)
		}
		if *exportDir != "" {
			if err := ds.Save(*exportDir); err != nil {
				fail(err)
			}
			fmt.Printf("exported %s to %s\n", *dsName, *exportDir)
			return
		}
		st := graph.ComputeStats(ds.Graph)
		fmt.Printf("%s: %s\n", *dsName, st)
		fmt.Printf("features: %dx%d, classes: %d, train/val/test: %d\n",
			ds.Features.Rows(), ds.Features.Cols(), ds.Spec.NumClasses, ds.TrainLabeledCount())
		for _, algo := range []partition.Algorithm{partition.Chunk, partition.Metis, partition.Fennel} {
			p, err := partition.New(algo, ds.Graph, *parts)
			if err != nil {
				fail(err)
			}
			q := partition.Evaluate(p, ds.Graph)
			fmt.Printf("%-7s %d parts: cut=%d (%.1f%%) imbalance=%.2f\n",
				algo, *parts, q.EdgeCut, 100*q.CutRatio, q.Imbalance)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}
