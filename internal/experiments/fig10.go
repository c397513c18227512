package experiments

import (
	"neutronstar/internal/baseline/distdgl"
	"neutronstar/internal/baseline/roc"
	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
)

// Fig10 reproduces the overall comparison of Figure 10: per model (GCN, GIN,
// GAT) and per graph, the per-epoch time of the DistDGL-like baseline, the
// ROC-like baseline, DepCache, optimised DepComm, and optimised Hybrid
// (NeutronStar). As in the paper, ROC has no GAT (no edge NN computation)
// and its column is reported as 0 there; DistDGL's distributed GIN is also
// absent in the paper but our sampler runs it, so its number is included.
func Fig10(sc Scale) []Row {
	var rows []Row
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GIN, nn.GAT} {
		for _, name := range sc.Graphs {
			ds := load(name)
			row := newRow(string(kind)+"/"+name,
				"distdgl_ms", distDGLEpochMillis(ds, kind, sc.Workers, sc.Epochs),
				"roc_ms", rocEpochMillis(ds, kind, sc.Workers, sc.Epochs),
				"depcache_ms", epochMillis(sc, ds, stdOpts(engine.DepCache, kind, sc.Workers, comm.ProfileECS)),
				"depcomm_ms", epochMillis(sc, ds, withRLP(stdOpts(engine.DepComm, kind, sc.Workers, comm.ProfileECS), true, true, true)),
				"hybrid_ms", epochMillis(sc, ds, withRLP(stdOpts(engine.Hybrid, kind, sc.Workers, comm.ProfileECS), true, true, true)),
			)
			rows = append(rows, row)
		}
	}
	return rows
}

// distDGLEpochMillis times the sampling baseline's epoch.
func distDGLEpochMillis(ds *dataset.Dataset, kind nn.ModelKind, workers, epochs int) float64 {
	tr, err := distdgl.New(ds, distdgl.Options{
		Workers: workers, Model: kind, Seed: 20220612, Profile: comm.ProfileECS,
	})
	if err != nil {
		return 0
	}
	defer tr.Close()
	return meanMillis(epochs, func() { tr.RunEpoch() })
}

// rocEpochMillis times the ROC-like baseline's epoch (0 when unsupported).
func rocEpochMillis(ds *dataset.Dataset, kind nn.ModelKind, workers, epochs int) float64 {
	e, err := roc.New(ds, roc.Options{
		Workers: workers, Model: kind, Seed: 20220612, Profile: comm.ProfileECS,
	})
	if err != nil {
		return 0 // GAT: unsupported by ROC, as in the paper
	}
	defer e.Close()
	return meanMillis(epochs, func() { e.RunEpoch() })
}
