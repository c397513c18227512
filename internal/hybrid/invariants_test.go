package hybrid

import (
	"math"
	"reflect"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/graph"
	"neutronstar/internal/partition"
)

// TestDecisionPartitionInvariantAcrossModes sweeps every assignment mode,
// several ratios and several memory budgets over the same graph and asserts
// the structural invariant the engines rely on: for every worker and every
// layer, each remote dependency lands in exactly one of R and C, both sorted
// ascending.
func TestDecisionPartitionInvariantAcrossModes(t *testing.T) {
	g, p := testSetup(t, 160, 5, 4, 31)
	type cfg struct {
		name   string
		mode   Mode
		ratio  float64
		budget int64
	}
	cfgs := []cfg{
		{"hybrid", ModeHybrid, 0, 0},
		{"hybrid/tight-budget", ModeHybrid, 0, 512},
		{"hybrid/mid-budget", ModeHybrid, 0, 16 << 10},
		{"allcache", ModeAllCache, 0, 0},
		{"allcomm", ModeAllComm, 0, 0},
		{"ratio/0", ModeRatio, 0, 0},
		{"ratio/0.5", ModeRatio, 0.5, 0},
		{"ratio/1", ModeRatio, 1, 0},
		{"alltp", ModeAllTP, 0, 0},
		{"hybrid3", ModeHybrid3, 0, 0},
		{"hybrid3/tight-budget", ModeHybrid3, 0, 512},
	}
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			pl := planner(g, p, costmodel.Costs{Tv: 1e-8, Te: 2e-9, Tc: 3e-8})
			pl.Ratio = c.ratio
			pl.MemBudget = c.budget
			ds, err := pl.DecideAll(c.mode)
			if err != nil {
				t.Fatal(err)
			}
			for w, d := range ds {
				checkPartitionOfDeps(t, pl, w, d)
				for l := range d.R {
					assertAscending(t, "R", w, l, d.R[l])
					assertAscending(t, "C", w, l, d.C[l])
				}
			}
			// The tensor-parallel bit is cluster-global: every worker must
			// carry the identical per-layer TP flags.
			for l := 1; l < len(pl.Dims); l++ {
				for w := 1; w < len(ds); w++ {
					if ds[w].TPAt(l) != ds[0].TPAt(l) {
						t.Fatalf("layer %d: worker %d TP=%v, worker 0 TP=%v",
							l, w, ds[w].TPAt(l), ds[0].TPAt(l))
					}
				}
			}
		})
	}
}

// TestEveryModeReportsEvaluatorPrices: a plan's price is what the one exact
// evaluator — the function the candidate argmin prices every plan with —
// says about its sets, whatever mode produced it. So ModeAllComm's plan is
// priced exactly as the comm candidate inside ModeHybrid4, and likewise for
// all-cache.
func TestEveryModeReportsEvaluatorPrices(t *testing.T) {
	g, p := testSetup(t, 160, 5, 4, 31)
	pl := planner(g, p, costmodel.Costs{Tv: 1e-8, Te: 2e-9, Tc: 3e-8})
	pl.Ratio, pl.MemBudget, pl.RepBudget, pl.RepCompression = 0.5, 16<<10, -1, 2
	cands, err := pl.Candidates(ModeHybrid4)
	if err != nil {
		t.Fatal(err)
	}
	// competing's tie order: comm, greedy, cache, ...
	for _, c := range []struct {
		mode Mode
		cand int
	}{{ModeAllComm, 0}, {ModeAllCache, 2}} {
		ds, err := pl.DecideAll(c.mode)
		if err != nil {
			t.Fatal(err)
		}
		for w, d := range ds {
			got, want := pl.Charge(w, d), pl.Charge(w, cands[c.cand].Plan[w])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("mode %d worker %d: priced %+v, hybrid4's candidate %d priced %+v", c.mode, w, got, c.cand, want)
			}
			if got.CacheCost+got.CommCost == 0 {
				t.Fatalf("mode %d worker %d: free plan proves nothing", c.mode, w)
			}
		}
	}
}

func assertAscending(t *testing.T, set string, worker, layer int, s []int32) {
	t.Helper()
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatalf("worker %d layer %d: %s not ascending: %v", worker, layer+1, set, s)
		}
	}
}

// TestGreedyMatchesExactInExtremeRegimes pins Algorithm 4 against the
// exhaustive solver where the optimum is unambiguous: when communication
// dwarfs compute the optimal plan caches everything, and when communication
// is free it communicates everything. The comparison is on Charge's price (the
// shared cost semantics), not on the raw sets, because cost-equal ties can
// legitimately differ.
func TestGreedyMatchesExactInExtremeRegimes(t *testing.T) {
	g, p := testSetup(t, 24, 2.0, 2, 33)
	regimes := []struct {
		name  string
		costs costmodel.Costs
	}{
		{"comm-dominant", costmodel.Costs{Tv: 1e-9, Te: 1e-10, Tc: 1}},
		{"comm-free", costmodel.Costs{Tv: 1, Te: 1, Tc: 1e-12}},
	}
	for _, r := range regimes {
		t.Run(r.name, func(t *testing.T) {
			pl := planner(g, p, r.costs)
			for w := 0; w < p.NumParts; w++ {
				exact, err := pl.ExactDecision(w, 1<<22)
				if err != nil {
					t.Skipf("instance too large for exact solver: %v", err)
				}
				greedy := decideWorker(t, pl, w, ModeHybrid)
				gc := pl.epochCost(w, greedy)
				ec := pl.epochCost(w, exact)
				if math.Abs(gc-ec) > 1e-12*math.Max(1, ec) {
					t.Fatalf("worker %d: greedy cost %g, exact optimum %g", w, gc, ec)
				}
			}
		})
	}
}

// twoVertexPlanner builds the smallest instance with one remote dependency:
// vertex 0 (worker 0, zero in-degree) feeds vertex 1 (worker 1).
func twoVertexPlanner(costs costmodel.Costs, dims []int) *Planner {
	g := graph.MustFromEdges(2, []graph.Edge{{Src: 0, Dst: 1}})
	p := &partition.Partition{
		NumParts: 2,
		Assign:   []int32{0, 1},
		Parts:    [][]int32{{0}, {1}},
	}
	return &Planner{Graph: g, Part: p, Dims: dims, Costs: costs}
}

// TestCostTieGoesToComm pins the boundary of Algorithm 4 line 11: the greedy
// caches strictly when t_r < t_c, so an exact tie falls to communication.
// With a zero-in-degree dependency u, t_r^2(u) = Tv·d^(1) (Eq. 1 has no edge
// term) and t_c^2(u) = Tc·d^(1) (Eq. 2) — setting Tv = Tc forces the tie.
func TestCostTieGoesToComm(t *testing.T) {
	pl := twoVertexPlanner(costmodel.Costs{Tv: 5e-8, Te: 1e-9, Tc: 5e-8}, []int{4, 4, 2})
	d := decideWorker(t, pl, 1, ModeHybrid)
	// Layer 1 is free to cache (features replicate at setup); layer 2 is the
	// tie and must communicate.
	if len(d.R[0]) != 1 || len(d.C[0]) != 0 {
		t.Fatalf("layer 1: R=%v C=%v, want dep cached", d.R[0], d.C[0])
	}
	if len(d.C[1]) != 1 || len(d.R[1]) != 0 {
		t.Fatalf("layer 2: R=%v C=%v, want tie communicated", d.R[1], d.C[1])
	}
	// Nudging Tv below Tc flips the same dependency to the cache side.
	pl = twoVertexPlanner(costmodel.Costs{Tv: 5e-8 - 1e-12, Te: 1e-9, Tc: 5e-8}, []int{4, 4, 2})
	d = decideWorker(t, pl, 1, ModeHybrid)
	if len(d.R[1]) != 1 {
		t.Fatalf("layer 2 with t_r < t_c: R=%v C=%v, want dep cached", d.R[1], d.C[1])
	}
}

// TestZeroDegreeDependencyCost checks Eq. 1 on a dependency whose subtree is
// a single vertex with no in-edges: the modeled cost of caching it is exactly
// the vertex term, with no edge contribution.
func TestZeroDegreeDependencyCost(t *testing.T) {
	costs := costmodel.Costs{Tv: 3e-8, Te: 7e-9, Tc: 1e-6}
	dims := []int{4, 6, 2}
	pl := twoVertexPlanner(costs, dims)
	d := &Decision{R: [][]int32{nil, {0}}, C: [][]int32{{0}, nil}}
	got := pl.epochCost(1, d)
	want := costs.Tv * float64(dims[1]) // one vertex op at level 1, zero edges
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("zero-degree cached dep cost %g, want %g", got, want)
	}
}

// TestSingleWorkerDegeneratePlan: with one partition there are no remote
// dependencies, so every mode must produce empty sets and zero estimates.
func TestSingleWorkerDegeneratePlan(t *testing.T) {
	g, p := testSetup(t, 40, 3, 1, 35)
	for _, mode := range []Mode{ModeHybrid, ModeAllCache, ModeAllComm, ModeRatio, ModeAllTP, ModeHybrid3} {
		pl := planner(g, p, costmodel.Costs{Tv: 1e-8, Te: 2e-9, Tc: 3e-8})
		pl.Ratio = 0.5
		ds, err := pl.DecideAll(mode)
		if err != nil {
			t.Fatal(err)
		}
		d := ds[0]
		if d.NumCached() != 0 || d.NumComm() != 0 {
			t.Fatalf("mode %d: R=%d C=%d deps on a single worker", mode, d.NumCached(), d.NumComm())
		}
		if ch := pl.Charge(0, d); ch.Bytes != 0 || ch.CacheCost != 0 || ch.CommCost != 0 {
			t.Fatalf("mode %d: nonzero prices %d/%g/%g", mode, ch.Bytes, ch.CacheCost, ch.CommCost)
		}
		if mode == ModeHybrid3 && d.NumTP() != 0 {
			// Every candidate ties at zero on one worker and the tie rule
			// picks pure communication, so no layer goes tensor-parallel.
			t.Fatalf("hybrid3 on a single worker chose %d TP layers", d.NumTP())
		}
	}
}

// TestThreeWayTieGoesToComm pins the generalized tie rule of the 3-way argmin
// (the per-dependency version lives in TestCostTieGoesToComm): candidates are
// ordered communication, 2-way greedy, caching, then TP suffixes shallowest
// first, and only a strictly cheaper candidate displaces an earlier one. Two
// regimes force exact ties that include the tensor-parallel candidates:
// all-zero costs tie every candidate at 0; zero Tc ties comm, greedy and all
// TP suffixes at 0 while caching stays strictly positive. Both must resolve
// to pure communication — no TP, nothing cached, the dependency in C.
func TestThreeWayTieGoesToComm(t *testing.T) {
	regimes := []struct {
		name  string
		costs costmodel.Costs
	}{
		{"all-zero", costmodel.Costs{}},
		{"free-comm", costmodel.Costs{Tv: 5e-8, Te: 1e-9, Tc: 0}},
	}
	for _, r := range regimes {
		t.Run(r.name, func(t *testing.T) {
			pl := twoVertexPlanner(r.costs, []int{4, 4, 2})
			ds, err := pl.DecideAll(ModeHybrid3)
			if err != nil {
				t.Fatal(err)
			}
			for w, d := range ds {
				if d.NumTP() != 0 {
					t.Fatalf("worker %d: tie chose %d TP layers, want pure comm", w, d.NumTP())
				}
				if d.NumCached() != 0 {
					t.Fatalf("worker %d: tie cached %d deps, want pure comm", w, d.NumCached())
				}
			}
			// Worker 1's single dependency (vertex 0) must be communicated at
			// every layer.
			d := ds[1]
			for l := range d.C {
				if len(d.C[l]) != 1 || d.C[l][0] != 0 {
					t.Fatalf("layer %d: C=%v, want [0]", l+1, d.C[l])
				}
			}
		})
	}
}
