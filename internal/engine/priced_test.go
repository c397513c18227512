package engine_test

import (
	"fmt"
	"math"
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

// summed is plan's price as the candidate argmin sums it: Σ_w CacheCost +
// CommCost, in worker order.
func summed(p *hybrid.Planner, plan []*hybrid.Decision) (cost float64) {
	for w, dec := range plan {
		ch := p.Charge(w, dec)
		cost += ch.CacheCost + ch.CommCost
	}
	return cost
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

// TestDepTPHome: DepTP has a home in model space, where NeutronTP
// (PAPERS.md) puts it — a dense graph, a sum-decomposable model, depth.
// Over every ModeHybrid3 candidate priced as Σ_w CacheCost + CommCost, a
// 3-layer GCN on 4 or 8 workers with Tv = 2.98·Te and Tc/Te ∈ {2, 8, 15, 45,
// 150} (ROADMAP reading (xv)'s sweep) prices the best tensor-parallel
// candidate at most 0.9 of the best non-TP one on reddit in every cell, and
// at least 1.1 of it on google and livejournal. Without SliceTP's slice
// dataflow reddit's cells read 1.000–1.216 and the first bound fails.
func TestDepTPHome(t *testing.T) {
	const te = 1e-9
	for _, c := range []struct {
		name     string
		min, max float64 // the TP/non-TP ratio's allowed range
	}{
		{"reddit", 0, 0.9},
		{"google", 1.1, math.Inf(1)},
		{"livejournal", 1.1, math.Inf(1)},
	} {
		ds, err := dataset.LoadByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8} {
			opts := engine.Options{Workers: workers, Model: nn.GCN, Layers: 3}
			for _, tcTe := range []float64{2, 8, 15, 45, 150} {
				plan, err := decide(ds, opts, costmodel.Costs{Tv: 2.98 * te, Te: te, Tc: tcTe * te}, hybrid.ModeHybrid3, 0)
				if err != nil {
					t.Fatal(err)
				}
				cands, err := plan.Planner.Candidates(hybrid.ModeHybrid3)
				if err != nil {
					t.Fatal(err)
				}
				bestTP, bestOther := math.Inf(1), math.Inf(1)
				for _, cand := range cands {
					var total float64
					tp := false
					for w, dec := range cand.Plan {
						ch := plan.Planner.Charge(w, dec)
						total += ch.CacheCost + ch.CommCost
						tp = tp || dec.NumTP() > 0
					}
					if tp {
						bestTP = min(bestTP, total)
					} else {
						bestOther = min(bestOther, total)
					}
				}
				if ratio := bestTP / bestOther; !(ratio >= c.min && ratio <= c.max) {
					t.Errorf("%s W=%d Tc/Te=%g: best TP / best non-TP = %.3f, want in [%g, %g]",
						c.name, workers, tcTe, ratio, c.min, c.max)
				}
			}
		}
	}
}

// TestWholeBlockTPNeverWins: without SliceTP a tensor-parallel layer fetches
// every peer's whole owned block, so no TP suffix is worth offering. For GAT
// on the Fig. 2a generators (W ∈ {4, 8}, L ∈ {2, 3}, Tv = 2.98·Te, Tc/Te ∈
// {2, 8, 15, 45, 150}, ROADMAP reading (xvii)) and on train-hybrid-gat's
// graph, ModeHybrid3 offers comm, greedy and cache only, and every TP suffix
// over the greedy prefix below it — built here, as the planner no longer
// does — prices at least the best of the three. Halving the whole-block
// fetch count in Ledger fails cells.
//
// The greedy decides bottom up, and its layer-l split reads only d^(0..l-1),
// so the greedy of the planner cut to L−1 layers is the prefix. The L-layer
// greedy is priced only for a suffix below min(comm, cache): on pokec at
// L = 3 it costs seconds a cell, and there no suffix needs it.
func TestWholeBlockTPNeverWins(t *testing.T) {
	const te = 1e-9
	type grid struct {
		ds              *dataset.Dataset
		workers, layers []int
	}
	var grids []grid
	for _, name := range []string{"google", "pokec", "reddit", "livejournal"} {
		ds, err := dataset.LoadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, grid{ds, []int{4, 8}, []int{2, 3}})
	}
	rmat := dataset.Load(dataset.Spec{
		Name: "bench-rmat", Gen: dataset.GenRMAT, Vertices: 7000, AvgDegree: 18, Skew: 0.45,
		FeatureDim: 64, HiddenDim: 32, NumClasses: 16, Seed: 11,
	})
	grids = append(grids, grid{rmat, []int{4}, []int{2}})
	priced := func(p *hybrid.Planner, mode hybrid.Mode) float64 {
		plan, err := p.DecideAll(mode)
		if err != nil {
			t.Fatal(err)
		}
		return summed(p, plan)
	}
	for _, g := range grids {
		for _, workers := range g.workers {
			for _, L := range g.layers {
				opts := engine.Options{Workers: workers, Model: nn.GAT, Layers: L}
				plan, err := decide(g.ds, opts, costmodel.Costs{}, hybrid.ModeAllComm, 0)
				if err != nil {
					t.Fatal(err)
				}
				p := plan.Planner
				cut := *p
				cut.Dims = p.Dims[:L]
				for _, tcTe := range []float64{2, 8, 15, 45, 150} {
					cell := fmt.Sprintf("%s W=%d L=%d Tc/Te=%g", g.ds.Spec.Name, workers, L, tcTe)
					p.Costs = costmodel.Costs{Tv: 2.98 * te, Te: te, Tc: tcTe * te}
					cut.Costs = p.Costs
					cands, err := cut.Candidates(hybrid.ModeHybrid3)
					if err != nil {
						t.Fatal(err)
					}
					if len(cands) != 3 {
						t.Fatalf("%s: ModeHybrid3 offers %d candidates without SliceTP, want comm, greedy and cache", cell, len(cands))
					}
					prefix := cands[1].Plan
					best := min(priced(p, hybrid.ModeAllComm), priced(p, hybrid.ModeAllCache))
					greedyPriced := false
					for tpFrom := L; tpFrom >= 1; tpFrom-- {
						suffix := make([]*hybrid.Decision, workers)
						for w, base := range prefix {
							d := &hybrid.Decision{R: make([][]int32, L), C: make([][]int32, L), TP: make([]bool, L)}
							for l := 1; l <= L; l++ {
								if l < tpFrom {
									d.R[l-1], d.C[l-1] = base.R[l-1], base.C[l-1]
								} else {
									d.TP[l-1] = true
								}
							}
							suffix[w] = d
						}
						price := summed(p, suffix)
						if price < best && !greedyPriced {
							best, greedyPriced = min(best, priced(p, hybrid.ModeHybrid)), true
						}
						if price < best {
							t.Errorf("%s: TP from layer %d prices %.6f of the best non-TP plan", cell, tpFrom, price/best)
						}
					}
				}
			}
		}
	}
}

// TestBoundLayer1Threshold: with layer 1 bound, a 2-layer GCN's DepCache and
// DepComm hold the same dependency set, one recomputing it at Tv·d¹ a row and
// the other fetching it at Tc·d¹ a row, so on every Fig. 2a graph and
// cluster size their priced ratio is Tv/Tc and Algorithm 4 caches all of it
// or none: its plan prices exactly min(pure), and a tie falls to comm.
func TestBoundLayer1Threshold(t *testing.T) {
	total := func(plan *engine.Plan) float64 { return summed(plan.Planner, plan.Decisions) }
	for _, name := range []string{"google", "pokec", "reddit", "livejournal"} {
		ds, err := dataset.LoadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8} {
			opts := engine.Options{Workers: workers, Model: nn.GCN, Layers: 2}
			for _, tc := range []float64{1e-8, 3e-8, 9e-8} {
				costs := costmodel.Costs{Tv: 3e-8, Te: 1e-8, Tc: tc}
				var plans [3]*engine.Plan
				for i, mode := range []hybrid.Mode{hybrid.ModeAllCache, hybrid.ModeAllComm, hybrid.ModeHybrid} {
					if plans[i], err = decide(ds, opts, costs, mode, 0); err != nil {
						t.Fatal(err)
					}
				}
				cache, comm, hyb := total(plans[0]), total(plans[1]), total(plans[2])
				if rel := math.Abs(cache/comm-costs.Tv/tc) / (costs.Tv / tc); rel > 1e-9 {
					t.Fatalf("%s W=%d Tc=%g: DepCache/DepComm priced %.12g, want Tv/Tc = %.12g", name, workers, tc, cache/comm, costs.Tv/tc)
				}
				if hyb != min(cache, comm) {
					t.Fatalf("%s W=%d Tc=%g: hybrid priced %.17g, min(pure) %.17g", name, workers, tc, hyb, min(cache, comm))
				}
				if tc == costs.Tv {
					for w, dec := range plans[2].Decisions {
						if len(dec.R[1]) != 0 {
							t.Fatalf("%s W=%d: at Tv = Tc worker %d caches %d layer-2 dependencies, want the tie to fall to comm", name, workers, w, len(dec.R[1]))
						}
					}
				}
			}
		}
	}
}
