package experiments

import (
	"neutronstar/internal/comm"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
)

// Fig9 reproduces the performance-gain analysis of Figure 9: per graph, the
// per-epoch time of raw DepCache, raw DepComm and raw Hybrid, then Hybrid
// with the optimisations stacked one by one — +R (ring communication), +RL
// (lock-free enqueue), +RLP (communication/computation overlap). The paper
// reports everything as speedup over raw DepCache; the speedup columns here
// do the same.
func Fig9(sc Scale) []Row {
	var rows []Row
	for _, name := range sc.Graphs {
		ds := load(name)
		base := stdOpts(engine.DepCache, nn.GCN, sc.Workers, comm.ProfileECS)
		cache := epochMillis(sc, ds, base)
		commT := epochMillis(sc, ds, stdOpts(engine.DepComm, nn.GCN, sc.Workers, comm.ProfileECS))
		hy := stdOpts(engine.Hybrid, nn.GCN, sc.Workers, comm.ProfileECS)
		hybrid := epochMillis(sc, ds, hy)
		hybridR := epochMillis(sc, ds, withRLP(hy, true, false, false))
		hybridRL := epochMillis(sc, ds, withRLP(hy, true, true, false))
		hybridRLP := epochMillis(sc, ds, withRLP(hy, true, true, true))
		rows = append(rows, newRow(name,
			"depcache_ms", cache,
			"depcomm_ms", commT,
			"hybrid_ms", hybrid,
			"hybrid_R_ms", hybridR,
			"hybrid_RL_ms", hybridRL,
			"hybrid_RLP_ms", hybridRLP,
			"speedup_hybrid", cache/hybrid,
			"speedup_RLP", cache/hybridRLP,
		))
	}
	return rows
}

// Table3 reproduces the cost/benefit analysis of Table 3: the runtime of
// `epochsPer100` epochs (the paper uses 100; we scale) for DepCache, DepComm
// and Hybrid, plus the one-time hybrid dependency-partitioning time
// ("Preprocessing"), whose paper-reported overhead is at most 3%.
func Table3(sc Scale, epochs int) []Row {
	var rows []Row
	for _, name := range sc.Graphs {
		ds := load(name)
		vals := map[engine.Mode]float64{}
		var preprocess float64
		for _, mode := range []engine.Mode{engine.DepCache, engine.DepComm, engine.Hybrid} {
			opts := stdOpts(mode, nn.GCN, sc.Workers, comm.ProfileECS)
			if mode != engine.DepCache {
				opts = withRLP(opts, true, true, true)
			}
			e, err := engine.NewEngine(ds, opts)
			if err != nil {
				panic(err)
			}
			if mode == engine.Hybrid {
				preprocess = millis(e.PreprocessTime)
			}
			vals[mode] = millis(timed(epochs, func() { e.RunEpoch() }))
			e.Close()
		}
		rows = append(rows, newRow(name,
			"depcache_ms", vals[engine.DepCache],
			"depcomm_ms", vals[engine.DepComm],
			"hybrid_ms", vals[engine.Hybrid],
			"preprocess_ms", preprocess,
			"preprocess_pct", 100*preprocess/vals[engine.Hybrid],
		))
	}
	return rows
}
