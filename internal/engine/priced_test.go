package engine_test

import (
	"fmt"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/testkit"
)

// pricedMatchesPlan checks, for one plan, executed = ledger = priced. Per
// worker and layer, the work the execution plans buildPlans derives from the
// Decisions run every epoch — counted from their block arrays, recv lists and
// tensor-parallel shards (BuiltPlans.Executed), none of which read the
// ledger — equals the planner's Ledger count for count, and Charge's prices
// are Eq. 1–3 of those executed counts. bound says the model's layer 1 is
// nn.SumDecomposable, whose dataflow walks its edges once, at construction.
// Layer 1's communicated set is held from construction instead of fetched.
// It returns the execution plans and the layer-1 rows they hold in total.
func pricedMatchesPlan(plan *engine.Plan, bound bool) (built *engine.BuiltPlans, layer1Held int64, err error) {
	if built, err = engine.BuildPlans(plan); err != nil {
		return nil, 0, err
	}
	p := plan.Planner
	for w, dec := range plan.Decisions {
		ch := p.Charge(w, dec)
		var cache, comm float64
		for l, ex := range built.Executed(w, bound) {
			if ex != ch.Layers[l] {
				return nil, 0, fmt.Errorf("worker %d layer %d: plan runs %+v an epoch, ledger counts %+v", w, l+1, ex, ch.Layers[l])
			}
			cache += hybrid.ComputeCost(p.Costs, ex.ReplicaRows, ex.ReplicaEdges, p.Dims[l+1])
			comm += p.Costs.CommCost(ex.FetchedRows*int64(p.Dims[l]) + ex.TPElems)
		}
		if cache != ch.CacheCost || comm != ch.CommCost {
			return nil, 0, fmt.Errorf("worker %d: plan runs %g s of replica compute and %g s of traffic, Charge prices %g and %g",
				w, cache, comm, ch.CacheCost, ch.CommCost)
		}
		for l, held := range built.HeldRows(w) {
			want := int64(0)
			if l == 0 {
				want = built.Layer1CommSet(w)
			}
			if held != want {
				return nil, 0, fmt.Errorf("worker %d layer %d: plan holds %d rows, want %d", w, l+1, held, want)
			}
		}
		layer1Held += built.HeldRows(w)[0]
	}
	return built, layer1Held, nil
}

// boundLayer1 reports whether kind's layer 1 is nn.SumDecomposable — what
// masterMirror.bindFeatures asks of the model it runs.
func boundLayer1(kind nn.ModelKind) bool {
	_, ok := nn.MustNewModel(kind, []int{2, 2, 2}, 0, 1).Layers[0].(nn.SumDecomposable)
	return ok
}

// decide is the plan step under fixed costs, mode and cache budget, with
// ModeRatio's cached fraction at one half.
func decide(ds *dataset.Dataset, opts engine.Options, costs costmodel.Costs, mode hybrid.Mode, memBudget int64) (*engine.Plan, error) {
	return engine.PlanFor(ds, opts, func(p *hybrid.Planner, m *hybrid.Mode) {
		p.Costs, p.Ratio, p.MemBudget, *m = costs, 0.5, memBudget, mode
	})
}

// TestPricedCountsMatchPlan: the plan that runs is the ledger that was
// priced. Every planner mode × every model kind × L ∈ {2, 3} on random
// graphs, under cost regimes that make the greedy cache nothing, some and
// everything, tensor-parallel layers included. No engine is built: the
// executed counts come from buildPlans over the Decisions.
func TestPricedCountsMatchPlan(t *testing.T) {
	regimes := []costmodel.Costs{
		{Tv: 1e-8, Te: 2e-9, Tc: 1e-9},
		{Tv: 1e-8, Te: 2e-9, Tc: 3e-8},
		{Tv: 1e-8, Te: 2e-9, Tc: 1e-4},
	}
	// ModeRatio's forced 50 % split has upper layers whose subtrees hold
	// dependencies the lower layers communicate. Beside the defaults: a
	// cache budget too tight for anything but the replicated candidate.
	memBudgets := []int64{0, 256}
	prop := func(ds *dataset.Dataset) error {
		for mode := hybrid.ModeHybrid; mode <= hybrid.ModeHybrid4; mode++ {
			for _, kind := range nn.ModelKinds() {
				for L := 2; L <= 3; L++ {
					for i := 0; i < len(regimes)*len(memBudgets); i++ {
						opts := engine.Options{Workers: min(3, ds.Graph.NumVertices()), Model: kind, Layers: L}
						plan, err := decide(ds, opts, regimes[i%len(regimes)], mode, memBudgets[i/len(regimes)])
						if err == nil {
							_, _, err = pricedMatchesPlan(plan, boundLayer1(kind))
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
		layer2 += comm.Planner.Charge(w, dec).Layers[1].FetchedRows
	}
	if layer1Held != 6981 || layer2 != 6981 {
		t.Fatalf("bench-rmat, 4 workers, DepComm: %d rows held at layer 1, %d rows charged at layer 2; want 6981 each",
			layer1Held, layer2)
	}
	if got, want := built.CacheBytes(), int64(6981*64*4); got != want {
		t.Fatalf("CacheBytes = %d, want %d (the held rows at 4·d⁰ B each)", got, want)
	}

	// A bound level-1 replica costs Tv·d¹: DepCache GCN's price has no edge
	// term, as its plan walks no layer-1 edge in an epoch.
	cache, err := decide(ds, opts, regimes[1], hybrid.ModeAllCache, 0)
	if err != nil {
		t.Fatal(err)
	}
	if built, _, err = pricedMatchesPlan(cache, true); err != nil {
		t.Fatal(err)
	}
	for w, dec := range cache.Decisions {
		rows := built.Executed(w, true)[0].ReplicaRows
		if got, want := cache.Planner.Charge(w, dec).CacheCost, float64(regimes[1].Tv*float64(rows*32)); rows == 0 || got != want {
			t.Fatalf("worker %d: DepCache GCN priced %g for %d level-1 replicas, want Tv·d¹ each = %g", w, got, rows, want)
		}
	}
}
