package engine_test

import (
	"fmt"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/partition"
	"neutronstar/internal/testkit"
)

// pricedMatchesPlan checks, for one plan, that what the planner priced is
// what the execution plans buildPlans derives from the same Decisions hold:
// per worker and per layer the rows charged
// CommCost are the rows the layer fetches every epoch — none at layer 1
// (Charge never charges it), whose communicated set is held from
// construction instead — and at every
// level the replicas charged recompute are the destinations of the layer's
// cached block. The work report counts what every epoch does: a master–mirror
// layer walks its blocks' edges, except a sum-decomposable layer 1, which
// walked them once at construction (bound says the model is one). It returns
// the execution plans and the layer-1 rows they hold in total.
func pricedMatchesPlan(plan *engine.Plan, bound bool) (built *engine.BuiltPlans, layer1Held int64, err error) {
	if built, err = engine.BuildPlans(plan, bound); err != nil {
		return nil, 0, err
	}
	L := len(plan.Planner.Dims) - 1
	for w, dec := range plan.Decisions {
		ch := plan.Planner.Charge(w, dec)
		recvRows, heldRows, cachedDsts := built.PlanRows(w)
		walked, planned, _ := built.PlanEdges(w)
		for l := 1; l <= L; l++ {
			want := planned[l-1]
			if dec.TPAt(l) {
				continue // pro-rated by column slice, pinned in the TP tests
			}
			if l == 1 && bound {
				want = 0
			}
			if walked[l-1] != want {
				return nil, 0, fmt.Errorf("worker %d layer %d: work report walks %d edges an epoch, plan %d", w, l, walked[l-1], want)
			}
		}
		for l := 1; l <= L; l++ {
			if ch.CommRows[l-1] != recvRows[l-1] {
				return nil, 0, fmt.Errorf("worker %d layer %d: %d rows charged CommCost, plan fetches %d", w, l, ch.CommRows[l-1], recvRows[l-1])
			}
			want := int64(0)
			if l == 1 {
				want = built.Layer1CommSet(w)
			}
			if heldRows[l-1] != want {
				return nil, 0, fmt.Errorf("worker %d layer %d: plan holds %d rows, want %d", w, l, heldRows[l-1], want)
			}
		}
		layer1Held += heldRows[0]
		// Level k is computed by layer k; nothing consumes a replica's h^(L).
		for k := 1; k < L; k++ {
			if ch.ReplicaRows[k] != cachedDsts[k-1] {
				return nil, 0, fmt.Errorf("worker %d level %d: %d replicas charged recompute, cached block has %d destinations", w, k, ch.ReplicaRows[k], cachedDsts[k-1])
			}
		}
		if cachedDsts[L-1] != 0 {
			return nil, 0, fmt.Errorf("worker %d: top layer recomputes %d replicas nothing consumes", w, cachedDsts[L-1])
		}
	}
	return built, layer1Held, nil
}

// decide is the plan step under fixed costs, mode and cache budget, with
// ModeRatio's cached fraction at one half.
func decide(ds *dataset.Dataset, opts engine.Options, costs costmodel.Costs, mode hybrid.Mode, memBudget int64) (*engine.Plan, error) {
	return engine.PlanFor(ds, opts, func(p *hybrid.Planner, m *hybrid.Mode) {
		p.Costs, p.Ratio, p.MemBudget, *m = costs, 0.5, memBudget, mode
	})
}

// TestPricedCountsMatchPlan: the plan that runs is read from the walk that
// was priced. Every planner mode × {GCN, GAT} × L ∈ {2, 3} on random graphs,
// under cost regimes that make the greedy cache nothing, some and everything.
// No engine is built: the counts come from buildPlans over the Decisions.
func TestPricedCountsMatchPlan(t *testing.T) {
	regimes := []costmodel.Costs{
		{Tv: 1e-8, Te: 2e-9, Tc: 1e-9},
		{Tv: 1e-8, Te: 2e-9, Tc: 3e-8},
		{Tv: 1e-8, Te: 2e-9, Tc: 1e-4},
	}
	// ModeRatio's forced 50 % split has upper layers whose subtrees hold
	// dependencies the lower layers communicate. Beside the defaults: a
	// cache budget too tight for anything but the (compressed) replicated
	// candidate.
	variants := []struct {
		quant     partition.RepQuant
		memBudget int64
	}{{partition.RepQuantOff, 0}, {partition.RepQuantFP16, 256}}
	prop := func(ds *dataset.Dataset) error {
		for mode := hybrid.ModeHybrid; mode <= hybrid.ModeHybrid4; mode++ {
			for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT} {
				for L := 2; L <= 3; L++ {
					for i := 0; i < len(regimes)*len(variants); i++ {
						v := variants[i/len(regimes)]
						opts := engine.Options{
							Workers: min(3, ds.Graph.NumVertices()), Model: kind, Layers: L, RepQuant: v.quant,
						}
						plan, err := decide(ds, opts, regimes[i%len(regimes)], mode, v.memBudget)
						if err == nil {
							_, _, err = pricedMatchesPlan(plan, nn.SliceSeparable(kind))
						}
						if err != nil {
							return fmt.Errorf("mode %d/%s/L%d/config %d: %w", mode, kind, L, i, err)
						}
					}
				}
			}
		}
		return nil
	}
	if cex := testkit.Check(12, 41, testkit.GenSpec{MaxVertices: 60, MaxAvgDegree: 5}, prop); cex != nil {
		t.Fatal(cex)
	}

	// At the benchmark's size: DepComm holds its layer-1 communicated set and
	// fetches only layer 2's rows every epoch, which is what Charge prices.
	ds := dataset.Load(dataset.Spec{
		Name: "bench-rmat", Gen: dataset.GenRMAT, Vertices: 7000, AvgDegree: 18, Skew: 0.45,
		FeatureDim: 64, HiddenDim: 32, NumClasses: 16, Seed: 11,
	})
	opts := engine.Options{Workers: 4, Model: nn.GCN, Layers: 2}
	comm, err := decide(ds, opts, regimes[1], hybrid.ModeAllComm, 0)
	if err != nil {
		t.Fatal(err)
	}
	built, layer1Held, err := pricedMatchesPlan(comm, true)
	if err != nil {
		t.Fatal(err)
	}
	var layer2 int64
	for w, dec := range comm.Decisions {
		layer2 += comm.Planner.Charge(w, dec).CommRows[1]
	}
	if layer1Held != 6981 || layer2 != 6981 {
		t.Fatalf("bench-rmat, 4 workers, DepComm: %d rows held at layer 1, %d rows charged at layer 2; want 6981 each",
			layer1Held, layer2)
	}
	if got, want := built.CacheBytes(), int64(6981*64*4); got != want {
		t.Fatalf("CacheBytes = %d, want %d (the held rows at 4·d⁰ B each)", got, want)
	}

	// The price does not know yet: Charge still charges every level-1 replica
	// its in-edges at Te, work a bound layer 1 no longer does (ROADMAP 3a).
	cache, err := decide(ds, opts, regimes[1], hybrid.ModeAllCache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if built, _, err = pricedMatchesPlan(cache, true); err != nil {
		t.Fatal(err)
	}
	var gap, cacheCost float64
	for w, dec := range cache.Decisions {
		_, _, cached := built.PlanEdges(w)
		gap += float64(cached[0]) * regimes[1].Te * 32
		cacheCost += cache.Planner.Charge(w, dec).CacheCost
	}
	t.Logf("bench-rmat, 4 workers, DepCache GCN: level-1 Te charged for bound edges is %.3g s of %.3g s CacheCost (%.0f %%)",
		gap, cacheCost, 100*gap/cacheCost)
}
