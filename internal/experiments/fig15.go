package experiments

import (
	"fmt"

	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/partition"
)

// Fig15 reproduces the graph-partitioning interplay of Figure 15: optimised
// DepComm versus optimised Hybrid under chunk-based, METIS-like and Fennel
// partitioning. The paper's claim — hybrid dependency management is
// orthogonal to graph partitioning and wins under all three — is checked by
// the hybrid_speedup column.
func Fig15(sc Scale) []Row {
	var rows []Row
	for _, name := range sc.Graphs {
		ds := load(name)
		for _, algo := range []partition.Algorithm{partition.Chunk, partition.Metis, partition.Fennel} {
			part, err := partition.New(algo, ds.Graph, sc.Workers)
			if err != nil {
				panic(err)
			}
			partitioned := func(p *hybrid.Planner, _ *hybrid.Mode) { p.Part = part }
			oc := withRLP(stdOpts(engine.DepComm, nn.GCN, sc.Workers, comm.ProfileECS), true, true, true)
			oh := withRLP(stdOpts(engine.Hybrid, nn.GCN, sc.Workers, comm.ProfileECS), true, true, true)
			commMs := tunedMillis(sc, ds, oc, partitioned)
			hyMs := tunedMillis(sc, ds, oh, partitioned)
			rows = append(rows, newRow(fmt.Sprintf("%s/%s", name, algo),
				"depcomm_ms", commMs,
				"hybrid_ms", hyMs,
				"hybrid_speedup", commMs/hyMs,
			))
		}
	}
	return rows
}

// Table4 reproduces the shared-memory comparison of Table 4: a
// single-machine full-graph trainer stands in for DGL-CPU/PyG-CPU (same
// computation, no partitioning or fabric), "nts_1w" is NeutronStar confined
// to one worker, and "nts_mw" is the distributed Hybrid engine. The paper's
// observation is that distributed NeutronStar wins on medium graphs.
func Table4(sc Scale) []Row {
	var rows []Row
	for _, name := range sc.Graphs {
		ds := load(name)
		rows = append(rows, newRow(name,
			"sharedmem_ms", referenceMillis(ds, nn.GCN, sc.Epochs),
			"nts_1w_ms", epochMillis(sc, ds, stdOpts(engine.Hybrid, nn.GCN, 1, comm.ProfileLocal)),
			"nts_mw_ms", epochMillis(sc, ds, withRLP(stdOpts(engine.Hybrid, nn.GCN, sc.Workers, comm.ProfileECS), true, true, true)),
		))
	}
	return rows
}

// Table5 reproduces the single-device comparison of Table 5: GCN and GAT on
// the small graphs, single worker, unthrottled fabric. The ROC-like engine
// column is absent for GAT, as in the paper; the shared-memory reference
// stands in for DGL/PyG.
func Table5(sc Scale) []Row {
	var rows []Row
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT} {
		for _, name := range []string{"cora", "citeseer", "pubmed", "google"} {
			ds := load(name)
			refMs := referenceMillis(ds, kind, sc.Epochs)
			nts := epochMillis(sc, ds, stdOpts(engine.Hybrid, kind, 1, comm.ProfileLocal))
			rocMs := 0.0
			if kind != nn.GAT {
				o := stdOpts(engine.DepComm, kind, 1, comm.ProfileLocal)
				o.Broadcast = true
				rocMs = epochMillis(sc, ds, o)
			}
			rows = append(rows, newRow(string(kind)+"/"+name,
				"sharedmem_ms", refMs,
				"roc_ms", rocMs,
				"nts_ms", nts,
			))
		}
	}
	return rows
}

// referenceMillis times the shared-memory reference trainer's epoch: the
// stand-in for DGL/PyG on one machine (same computation, no partitioning or
// fabric).
func referenceMillis(ds *dataset.Dataset, kind nn.ModelKind, epochs int) float64 {
	model := nn.MustNewModel(kind, []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}, 0, 7)
	return meanMillis(epochs, func() {
		engine.ReferenceTrainStep(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
		nn.ZeroGrads(model.Params())
	})
}
