package hybrid

import (
	"testing"
	"testing/quick"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/graph"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

func testSetup(t testing.TB, n int, deg float64, parts int, seed uint64) (*graph.Graph, *partition.Partition) {
	t.Helper()
	d := dataset.Load(dataset.Spec{
		Name: "h", Vertices: n, AvgDegree: deg, FeatureDim: 8,
		NumClasses: 4, HiddenDim: 8, Gen: dataset.GenRMAT, Seed: seed,
	})
	p, err := partition.New(partition.Chunk, d.Graph, parts)
	if err != nil {
		t.Fatal(err)
	}
	return d.Graph, p
}

func planner(g *graph.Graph, p *partition.Partition, costs costmodel.Costs) *Planner {
	return &Planner{Graph: g, Part: p, Dims: []int{8, 8, 4}, Costs: costs}
}

// checkPartitionOfDeps verifies that for every layer, R and C partition the
// dependency set exactly.
// decideWorker plans mode and returns worker w's Decision.
func decideWorker(t *testing.T, pl *Planner, w int, mode Mode) *Decision {
	t.Helper()
	decs, err := pl.DecideAll(mode)
	if err != nil {
		t.Fatal(err)
	}
	return decs[w]
}

func checkPartitionOfDeps(t *testing.T, pl *Planner, worker int, d *Decision) {
	t.Helper()
	deps := pl.dependencies(worker)
	depSet := make(map[int32]bool, len(deps))
	for _, u := range deps {
		depSet[u] = true
	}
	for l := range d.R {
		if d.TPAt(l + 1) {
			// A tensor-parallel layer has no per-vertex dependencies at all:
			// the slice-exchange collectives replace both sets.
			if len(d.R[l]) != 0 || len(d.C[l]) != 0 {
				t.Fatalf("worker %d layer %d: tensor-parallel layer carries R=%v C=%v",
					worker, l+1, d.R[l], d.C[l])
			}
			continue
		}
		seen := make(map[int32]int)
		for _, u := range d.R[l] {
			seen[u]++
		}
		for _, u := range d.C[l] {
			seen[u]++
		}
		if len(seen) != len(deps) {
			t.Fatalf("worker %d layer %d: %d of %d deps assigned", worker, l+1, len(seen), len(deps))
		}
		for u, c := range seen {
			if c != 1 {
				t.Fatalf("worker %d layer %d: dep %d assigned %d times", worker, l+1, u, c)
			}
			if !depSet[u] {
				t.Fatalf("worker %d layer %d: %d is not a dependency", worker, l+1, u)
			}
		}
	}
}

func TestModeAllCacheAllComm(t *testing.T) {
	g, p := testSetup(t, 500, 6, 4, 1)
	pl := planner(g, p, costmodel.Costs{Tv: 1e-7, Te: 1e-8, Tc: 1e-7})
	cacheDecs, err := pl.DecideAll(ModeAllCache)
	if err != nil {
		t.Fatal(err)
	}
	commDecs, err := pl.DecideAll(ModeAllComm)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		checkPartitionOfDeps(t, pl, i, cacheDecs[i])
		checkPartitionOfDeps(t, pl, i, commDecs[i])
		if cacheDecs[i].NumComm() != 0 {
			t.Fatalf("worker %d: AllCache has %d comm deps", i, cacheDecs[i].NumComm())
		}
		if commDecs[i].NumCached() != 0 {
			t.Fatalf("worker %d: AllComm has %d cached deps", i, commDecs[i].NumCached())
		}
	}
}

func TestHybridRespondsToCostRegime(t *testing.T) {
	g, p := testSetup(t, 1000, 10, 4, 2)
	// Expensive communication, cheap compute → caching dominates.
	cacheHeavy := planner(g, p, costmodel.Costs{Tv: 1e-9, Te: 1e-10, Tc: 1e-3})
	// Expensive compute, cheap communication → layer-2 communicating wins.
	commHeavy := planner(g, p, costmodel.Costs{Tv: 1e-3, Te: 1e-4, Tc: 1e-9})

	dc, err := cacheHeavy.DecideAll(ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := commHeavy.DecideAll(ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	var cacheHeavyCached, commHeavyCachedL2 int
	for i := range dc {
		checkPartitionOfDeps(t, cacheHeavy, i, dc[i])
		checkPartitionOfDeps(t, commHeavy, i, dm[i])
		cacheHeavyCached += dc[i].NumCached()
		commHeavyCachedL2 += len(dm[i].R[1])
	}
	if cacheHeavyCached == 0 {
		t.Fatal("cache-friendly regime cached nothing")
	}
	if commHeavyCachedL2 != 0 {
		t.Fatalf("comm-friendly regime cached %d layer-2 deps", commHeavyCachedL2)
	}
}

func TestHybridLayer1AlwaysCachedWithoutBudget(t *testing.T) {
	// Layer-1 (feature) dependencies have zero redundant compute cost, so
	// Algorithm 4 caches them whenever memory allows.
	g, p := testSetup(t, 500, 8, 4, 3)
	pl := planner(g, p, costmodel.Costs{Tv: 1e-6, Te: 1e-7, Tc: 1e-8})
	decs, err := pl.DecideAll(ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		if len(d.C[0]) != 0 {
			t.Fatalf("worker %d: %d layer-1 deps communicated despite free caching", i, len(d.C[0]))
		}
	}
}

func TestMemoryBudgetEnforced(t *testing.T) {
	g, p := testSetup(t, 1000, 10, 4, 4)
	pl := planner(g, p, costmodel.Costs{Tv: 1e-9, Te: 1e-10, Tc: 1e-3})
	pl.MemBudget = 2048 // tiny: a few hundred rows at most
	decs, err := pl.DecideAll(ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range decs {
		checkPartitionOfDeps(t, pl, i, d)
		if bytes := pl.Charge(i, d).Bytes; bytes > pl.MemBudget {
			t.Fatalf("worker %d: cache bytes %d over budget %d", i, bytes, pl.MemBudget)
		}
	}
	// The same regime without a budget must cache strictly more.
	pl2 := planner(g, p, costmodel.Costs{Tv: 1e-9, Te: 1e-10, Tc: 1e-3})
	unbounded, _ := pl2.DecideAll(ModeHybrid)
	var withBudget, without int
	for i := range decs {
		withBudget += decs[i].NumCached()
		without += unbounded[i].NumCached()
	}
	if withBudget >= without {
		t.Fatalf("budgeted cached %d >= unbounded %d", withBudget, without)
	}
}

func TestModeRatioSweep(t *testing.T) {
	g, p := testSetup(t, 800, 8, 4, 5)
	prev := -1
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 1} {
		pl := planner(g, p, costmodel.Costs{Tv: 1e-7, Te: 1e-8, Tc: 1e-6})
		pl.Ratio = ratio
		decs, err := pl.DecideAll(ModeRatio)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i, d := range decs {
			checkPartitionOfDeps(t, pl, i, d)
			total += d.NumCached()
		}
		if total < prev {
			t.Fatalf("ratio %v cached %d < previous %d", ratio, total, prev)
		}
		prev = total
	}
	// Ratio 1 must equal all-cache; ratio 0 must equal all-comm.
	pl := planner(g, p, costmodel.Costs{})
	pl.Ratio = 0
	decs, _ := pl.DecideAll(ModeRatio)
	for _, d := range decs {
		if d.NumCached() != 0 {
			t.Fatal("ratio 0 cached something")
		}
	}
	pl.Ratio = 1
	decs, _ = pl.DecideAll(ModeRatio)
	all, _ := pl.DecideAll(ModeAllCache)
	for i := range decs {
		if decs[i].NumCached() != all[i].NumCached() {
			t.Fatalf("ratio 1 cached %d, all-cache %d", decs[i].NumCached(), all[i].NumCached())
		}
	}
}

func TestSinglePartitionHasNoDeps(t *testing.T) {
	g, p := testSetup(t, 300, 5, 1, 6)
	pl := planner(g, p, costmodel.Costs{Tv: 1, Te: 1, Tc: 1})
	decs, err := pl.DecideAll(ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if decs[0].NumCached() != 0 || decs[0].NumComm() != 0 {
		t.Fatal("single worker has remote dependencies")
	}
}

func TestDecideAllRejectsNoLayers(t *testing.T) {
	g, p := testSetup(t, 100, 4, 2, 7)
	pl := &Planner{Graph: g, Part: p, Dims: []int{8}}
	if _, err := pl.DecideAll(ModeHybrid); err == nil {
		t.Fatal("expected error for dims without layers")
	}
}

// TestVRepMakesLaterCachingCheaper: a hub feeding two dependencies is
// charged to whichever is cached first. Worker 0 owns {0, 1, 2} and depends
// on 4 and 5 (edges 4→1, 5→2); hub 3, a replica too, feeds both (3→4, 3→5).
// Caching a dependency for layer 3 lifts it to level 2 and the hub to level
// 1 (at L = 2 the hub would sit at level 0, stored and never computed, and
// there would be no discount to see). So dep 5's ledger delta once dep 4 is
// cached is its delta alone minus hub 3's level-1 price, and Charge agrees.
func TestVRepMakesLaterCachingCheaper(t *testing.T) {
	g := graph.MustFromEdges(6, []graph.Edge{
		{Src: 4, Dst: 1}, {Src: 5, Dst: 2}, {Src: 3, Dst: 4}, {Src: 3, Dst: 5},
	})
	p := &partition.Partition{NumParts: 2, Assign: []int32{0, 0, 0, 1, 1, 1}, Parts: [][]int32{{0, 1, 2}, {3, 4, 5}}}
	if err := p.Validate(6); err != nil {
		t.Fatal(err)
	}
	pl := &Planner{Graph: g, Part: p, Dims: []int{1, 1, 1, 1}, Costs: costmodel.Costs{Tv: 1, Te: 1, Tc: 2.5}}
	// delta is the greedy's price of caching u for layer 3.
	delta := func(c *Closure, u int32) float64 {
		tr, _ := pl.moveCost(c.Add(u, 2), make([]Work, 3))
		return tr
	}
	alone := delta(NewClosure(g, p, 0), 5)
	c := NewClosure(g, p, 0)
	first := delta(c, 4)
	after := delta(c, 5)
	hub := ComputeCost(pl.Costs, 1, int64(g.InDegree(3)), pl.Dims[1])
	if hub == 0 || first != alone || after != alone-hub {
		t.Fatalf("dep 5 costs %g alone and %g after dep 4 (which cost %g); want %g minus hub 3's level-1 price %g",
			alone, after, first, alone, hub)
	}
	charged := func(r ...int32) float64 {
		return pl.Charge(0, &Decision{R: [][]int32{nil, nil, r}, C: make([][]int32, 3)}).CacheCost
	}
	if charged(5) != alone || charged(4, 5)-charged(4) != after {
		t.Fatalf("Charge prices dep 5 at %g alone and %g after dep 4; the greedy's deltas are %g and %g",
			charged(5), charged(4, 5)-charged(4), alone, after)
	}
}

// Property: R and C always partition the dependency set, for any mode and
// random graph.
func TestQuickDecisionsPartitionDeps(t *testing.T) {
	f := func(seed uint64, n8 uint8, mode8 uint8) bool {
		n := int(n8%100) + 20
		rng := tensor.NewRNG(seed)
		edges := make([]graph.Edge, n*3)
		for i := range edges {
			edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		g := graph.MustFromEdges(n, edges)
		p, err := partition.New(partition.Chunk, g, 3)
		if err != nil {
			return false
		}
		pl := &Planner{Graph: g, Part: p, Dims: []int{4, 4, 2},
			Costs: costmodel.Costs{Tv: 1e-7, Te: 1e-8, Tc: 1e-7}, Ratio: 0.5}
		mode := Mode(mode8 % 4)
		decs, err := pl.DecideAll(mode)
		if err != nil {
			return false
		}
		for i, d := range decs {
			deps := pl.dependencies(i)
			for l := range d.R {
				if len(d.R[l])+len(d.C[l]) != len(deps) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// buildTinyInstance makes a worker-0 instance with few dependencies so the
// exact solver is feasible.
func buildTinyInstance(t *testing.T, seed uint64, costs costmodel.Costs) (*Planner, int) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	const n = 12
	var edges []graph.Edge
	for i := 0; i < n*2; i++ {
		edges = append(edges, graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))})
	}
	g := graph.MustFromEdges(n, edges)
	p, err := partition.New(partition.Chunk, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	pl := &Planner{Graph: g, Part: p, Dims: []int{4, 4, 3}, Costs: costs}
	return pl, 0
}

func TestExactSolverBeatsOrMatchesPureStrategies(t *testing.T) {
	costs := costmodel.Costs{Tv: 1e-6, Te: 2e-7, Tc: 1.5e-6}
	pl, w := buildTinyInstance(t, 91, costs)
	deps := pl.dependencies(w)
	if len(deps) == 0 || len(deps) > 10 {
		t.Skipf("instance has %d deps", len(deps))
	}
	exact, err := pl.ExactDecision(w, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	allCache := decideWorker(t, pl, w, ModeAllCache)
	allComm := decideWorker(t, pl, w, ModeAllComm)
	exactCost := pl.epochCost(w, exact)
	cacheCost := pl.epochCost(w, allCache)
	commCost := pl.epochCost(w, allComm)
	if exactCost > cacheCost+1e-12 || exactCost > commCost+1e-12 {
		t.Fatalf("exact %v worse than pure strategies (cache %v, comm %v)", exactCost, cacheCost, commCost)
	}
}

// The headline quality claim for Algorithm 4: on instances small enough to
// solve exactly, the greedy's cost is within a small constant factor of the
// true optimum across random graphs and cost regimes.
func TestGreedyNearOptimal(t *testing.T) {
	regimes := []costmodel.Costs{
		{Tv: 1e-6, Te: 2e-7, Tc: 5e-6}, // comm expensive
		{Tv: 1e-6, Te: 2e-7, Tc: 1e-6}, // balanced
		{Tv: 5e-6, Te: 1e-6, Tc: 2e-7}, // compute expensive
	}
	worstRatio := 1.0
	for seed := uint64(0); seed < 12; seed++ {
		for ri, costs := range regimes {
			pl, w := buildTinyInstance(t, 300+seed, costs)
			deps := pl.dependencies(w)
			if len(deps) == 0 || len(deps) > 9 {
				continue
			}
			exact, err := pl.ExactDecision(w, 1<<22)
			if err != nil {
				t.Fatal(err)
			}
			greedy := decideWorker(t, pl, w, ModeHybrid)
			exactCost := pl.epochCost(w, exact)
			greedyCost := pl.epochCost(w, greedy)
			if exactCost == 0 {
				if greedyCost > 1e-12 {
					t.Fatalf("seed %d regime %d: optimum free but greedy cost %v", seed, ri, greedyCost)
				}
				continue
			}
			ratio := greedyCost / exactCost
			if ratio > worstRatio {
				worstRatio = ratio
			}
			if ratio > 2.0 {
				t.Fatalf("seed %d regime %d: greedy %v vs optimum %v (ratio %.2f)",
					seed, ri, greedyCost, exactCost, ratio)
			}
		}
	}
	t.Logf("worst greedy/optimal ratio observed: %.3f", worstRatio)
}

func TestExactRespectsBudget(t *testing.T) {
	costs := costmodel.Costs{Tv: 1e-9, Te: 1e-10, Tc: 1e-3}
	pl, w := buildTinyInstance(t, 95, costs)
	if len(pl.dependencies(w)) == 0 {
		t.Skip("no deps")
	}
	pl.MemBudget = 64
	d, err := pl.ExactDecision(w, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if bytes := pl.Charge(w, d).Bytes; bytes > 64 {
		t.Fatalf("exact solution uses %d bytes over budget", bytes)
	}
}

func TestExactRefusesHugeInstances(t *testing.T) {
	pl, w := buildTinyInstance(t, 96, costmodel.Costs{Tv: 1, Te: 1, Tc: 1})
	if _, err := pl.ExactDecision(w, 4); err == nil {
		t.Fatal("expected state-space refusal")
	}
}
