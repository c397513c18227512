package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

func testDataset(t testing.TB, n int, deg float64, seed uint64) *dataset.Dataset {
	t.Helper()
	return dataset.Load(dataset.Spec{
		Name: "eng", Vertices: n, AvgDegree: deg, FeatureDim: 12,
		NumClasses: 4, HiddenDim: 8, Gen: dataset.GenSBM, Homophily: 0.85, Seed: seed,
	})
}

// referenceLosses trains the single-machine reference for `epochs` and
// returns the loss per epoch.
func referenceLosses(ds *dataset.Dataset, kind nn.ModelKind, epochs int, seed uint64) []float64 {
	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
	model := nn.MustNewModel(kind, dims, 0, seed+7)
	opt := nn.NewAdam(0.01)
	out := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		loss := ReferenceTrainStep(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
		opt.Step(model.Params())
		nn.ZeroGrads(model.Params())
		out = append(out, loss)
	}
	return out
}

// newTuned is NewEngine with tune handed to PlanFor.
func newTuned(ds *dataset.Dataset, opts Options, tune func(*hybrid.Planner, *hybrid.Mode)) (*Engine, error) {
	plan, err := PlanFor(ds, opts, tune)
	if err != nil {
		return nil, err
	}
	return New(ds, plan, opts)
}

// fixedCosts plans under c instead of the probed factors, with a per-worker
// cache budget of memBudget bytes (0: none).
func fixedCosts(c costmodel.Costs, memBudget int64) func(*hybrid.Planner, *hybrid.Mode) {
	return func(p *hybrid.Planner, _ *hybrid.Mode) { p.Costs, p.MemBudget = c, memBudget }
}

// forcedRatio replaces Hybrid's greedy with a fixed cached fraction of every
// layer's dependencies (hybrid.ModeRatio, Fig. 11's sweep); every other
// policy plans as usual.
func forcedRatio(ratio float64) func(*hybrid.Planner, *hybrid.Mode) {
	return func(p *hybrid.Planner, mode *hybrid.Mode) {
		if *mode == hybrid.ModeHybrid {
			p.Ratio, *mode = ratio, hybrid.ModeRatio
		}
	}
}

// partitionedBy plans on algo's partition instead of the Chunk one.
func partitionedBy(t testing.TB, algo partition.Algorithm) func(*hybrid.Planner, *hybrid.Mode) {
	return func(p *hybrid.Planner, _ *hybrid.Mode) {
		var err error
		if p.Part, err = partition.New(algo, p.Graph, p.Part.NumParts); err != nil {
			t.Fatal(err)
		}
	}
}

func engineLosses(t *testing.T, ds *dataset.Dataset, opts Options, epochs int) []float64 {
	t.Helper()
	return tunedLosses(t, ds, opts, nil, epochs)
}

func tunedLosses(t *testing.T, ds *dataset.Dataset, opts Options, tune func(*hybrid.Planner, *hybrid.Mode), epochs int) []float64 {
	t.Helper()
	e, err := newTuned(ds, opts, tune)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out := make([]float64, 0, epochs)
	for i := 0; i < epochs; i++ {
		st := e.RunEpoch()
		out = append(out, st.Loss)
	}
	if !e.ReplicasInSync() {
		t.Fatalf("replicas diverged (%s, %d workers)", opts.Mode, opts.Workers)
	}
	return out
}

func assertLossesClose(t *testing.T, label string, got, want []float64, tol float64) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("%s: epoch %d loss %v, reference %v (all got %v, want %v)",
				label, i, got[i], want[i], got, want)
		}
	}
}

// The central correctness claim: DepCache, DepComm and Hybrid all compute
// the exact full-graph gradient, so their loss trajectories match the
// single-machine reference for every model and worker count.
func TestAllModesMatchReference(t *testing.T) {
	ds := testDataset(t, 240, 5, 21)
	const epochs = 4
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GIN, nn.GAT, nn.SAGE} {
		ref := referenceLosses(ds, kind, epochs, 42)
		for _, mode := range []Mode{DepCache, DepComm, Hybrid} {
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/%s/%dw", kind, mode, workers)
				got := engineLosses(t, ds, Options{
					Workers: workers, Mode: mode, Model: kind, Seed: 42,
				}, epochs)
				assertLossesClose(t, label, got, ref, 2e-3)
			}
		}
	}
}

func TestOptimizationsPreserveResults(t *testing.T) {
	ds := testDataset(t, 200, 6, 22)
	const epochs = 3
	ref := referenceLosses(ds, nn.GCN, epochs, 5)
	for _, opt := range []struct {
		name string
		o    Options
	}{
		{"ring", Options{Ring: true}},
		{"lockfree", Options{LockFree: true}},
		{"overlap", Options{Overlap: true}},
		{"all", Options{Ring: true, LockFree: true, Overlap: true}},
	} {
		o := opt.o
		o.Workers = 3
		o.Mode = Hybrid
		o.Model = nn.GCN
		o.Seed = 5
		got := engineLosses(t, ds, o, epochs)
		assertLossesClose(t, opt.name, got, ref, 2e-3)
	}
}

func TestForcedRatioEndpointsMatchPureModes(t *testing.T) {
	ds := testDataset(t, 200, 6, 23)
	const epochs = 3
	ref := referenceLosses(ds, nn.GCN, epochs, 9)
	for _, ratio := range []float64{0, 0.5, 1} {
		got := tunedLosses(t, ds, Options{Workers: 3, Mode: Hybrid, Model: nn.GCN, Seed: 9},
			forcedRatio(ratio), epochs)
		assertLossesClose(t, fmt.Sprintf("ratio %.1f", ratio), got, ref, 2e-3)
	}
}

func TestPartitionersAllCorrect(t *testing.T) {
	ds := testDataset(t, 300, 6, 24)
	const epochs = 2
	ref := referenceLosses(ds, nn.GCN, epochs, 11)
	for _, algo := range []partition.Algorithm{partition.Chunk, partition.Metis, partition.Fennel} {
		got := tunedLosses(t, ds, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 11},
			partitionedBy(t, algo), epochs)
		assertLossesClose(t, string(algo), got, ref, 2e-3)
	}
}

func TestThrottledNetworkStillCorrect(t *testing.T) {
	ds := testDataset(t, 150, 5, 25)
	ref := referenceLosses(ds, nn.GCN, 2, 13)
	got := engineLosses(t, ds, Options{
		Workers: 3, Mode: DepComm, Model: nn.GCN, Seed: 13,
		Profile: comm.NetworkProfile{Name: "t", BytesPerSec: 200e6},
		Ring:    true, Overlap: true,
	}, 2)
	assertLossesClose(t, "throttled", got, ref, 2e-3)
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	ds := testDataset(t, 400, 8, 26)
	e, err := NewEngine(ds, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 3, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	before := e.Evaluate(ds.TestMask)
	stats := e.Train(40)
	after := e.Evaluate(ds.TestMask)
	if after < before+0.2 {
		t.Fatalf("accuracy went %v -> %v; no learning", before, after)
	}
	if stats[len(stats)-1].Loss >= stats[0].Loss {
		t.Fatalf("loss did not decrease: %v -> %v", stats[0].Loss, stats[len(stats)-1].Loss)
	}
	if after < 0.55 {
		t.Fatalf("final accuracy %v too low for a homophilous SBM", after)
	}
}

func TestDepCacheMovesNoRepBytes(t *testing.T) {
	// DepCache must not exchange representation messages — only all-reduce
	// traffic.
	ds := testDataset(t, 200, 6, 27)
	e, err := NewEngine(ds, Options{Workers: 3, Mode: DepCache, Model: nn.GCN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, p := range e.plans {
		for l := range p.layers {
			for j := range p.layers[l].recv {
				if len(p.layers[l].recv[j]) != 0 {
					t.Fatalf("DepCache worker %d layer %d receives from %d", p.id, l+1, j)
				}
			}
		}
	}
	if e.CacheBytes() == 0 {
		t.Fatal("DepCache replicated nothing on a cut graph")
	}
	e.RunEpoch()
}

func TestDepCommCachesNothing(t *testing.T) {
	ds := testDataset(t, 200, 6, 28)
	e, err := NewEngine(ds, Options{Workers: 3, Mode: DepComm, Model: nn.GCN, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, p := range e.plans {
		for k, c := range p.cachedCompute {
			if len(c) != 0 {
				t.Fatalf("DepComm worker %d cached %d vertices at level %d", p.id, len(c), k)
			}
		}
	}
}

// Plan structural invariants, checked across modes: every in-edge of every
// owned vertex appears exactly once in the owned block; row indices are in
// range; send/recv lists are symmetric.
func TestPlanInvariants(t *testing.T) {
	ds := testDataset(t, 180, 7, 29)
	for _, mode := range []Mode{DepCache, DepComm, Hybrid} {
		e, err := NewEngine(ds, Options{Workers: 4, Mode: mode, Model: nn.GCN, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		for _, p := range e.plans {
			for l := range p.layers {
				lp := &p.layers[l]
				// Owned block edge count equals total in-degree of owned set.
				wantEdges := 0
				for _, v := range p.owned {
					wantEdges += g.InDegree(v)
				}
				if len(lp.owned.srcRow) != wantEdges {
					t.Fatalf("%s worker %d layer %d: %d edges, want %d",
						mode, p.id, l+1, len(lp.owned.srcRow), wantEdges)
				}
				for _, r := range lp.owned.srcRow {
					if r < 0 || int(r) >= lp.numHAllRows {
						t.Fatalf("%s: srcRow %d out of %d", mode, r, lp.numHAllRows)
					}
				}
				for _, r := range lp.cached.srcRow {
					if r < 0 || int(r) >= lp.numPrevRows {
						t.Fatalf("%s: cached srcRow %d outside prev rows %d", mode, r, lp.numPrevRows)
					}
				}
				// Symmetry: my send list to j equals j's recv list from me.
				for j := range lp.send {
					if j == p.id {
						continue
					}
					other := e.plans[j].layers[l].recv[p.id]
					if len(lp.send[j]) != len(other) {
						t.Fatalf("%s: send/recv asymmetry %d<->%d", mode, p.id, j)
					}
					for k := range other {
						if lp.send[j][k] != other[k] {
							t.Fatalf("%s: send/recv order mismatch", mode)
						}
					}
					// Everything I send must be owned by me.
					for _, v := range lp.send[j] {
						if e.planner.Part.Assign[v] != int32(p.id) {
							t.Fatalf("%s: worker %d sends non-owned %d", mode, p.id, v)
						}
					}
				}
			}
		}
		e.Close()
	}
}

func TestHybridCachesLessThanDepCache(t *testing.T) {
	ds := testDataset(t, 400, 10, 30)
	// Comm-expensive regime: hybrid should still cache less than DepCache
	// overall (DepCache caches everything).
	costs := costmodel.Costs{Tv: 1e-7, Te: 1e-8, Tc: 1e-6}
	h, err := newTuned(ds, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 4}, fixedCosts(costs, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	c, err := newTuned(ds, Options{Workers: 4, Mode: DepCache, Model: nn.GCN, Seed: 4}, fixedCosts(costs, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if h.CacheBytes() > c.CacheBytes() {
		t.Fatalf("hybrid cache %d > depcache %d", h.CacheBytes(), c.CacheBytes())
	}
}

func TestEpochStatsPopulated(t *testing.T) {
	ds := testDataset(t, 100, 4, 31)
	e, err := NewEngine(ds, Options{Workers: 2, Mode: Hybrid, Model: nn.GCN, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st := e.RunEpoch()
	if st.Epoch != 1 || st.Loss <= 0 || st.Duration <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	st2 := e.RunEpoch()
	if st2.Epoch != 2 {
		t.Fatal("epoch counter broken")
	}
}

func TestUnknownModeRejected(t *testing.T) {
	ds := testDataset(t, 50, 3, 32)
	if _, err := NewEngine(ds, Options{Workers: 2, Mode: "bogus"}); err == nil {
		t.Fatal("expected error")
	}
}

// TestUnknownModelRejectedBeforePlanning: the plan step, not the run step,
// rejects a model outside nn.ModelKinds, so no planner decides for it.
func TestUnknownModelRejectedBeforePlanning(t *testing.T) {
	ds := testDataset(t, 50, 3, 32)
	tuned := false
	_, err := PlanFor(ds, Options{Workers: 2, Model: "transformer"}, func(*hybrid.Planner, *hybrid.Mode) { tuned = true })
	if err == nil || !strings.Contains(err.Error(), `unknown model "transformer"`) || tuned {
		t.Fatalf("PlanFor(transformer) = %v, tuned %v; want the unknown-model error before planning", err, tuned)
	}
}

func TestSingleWorkerNoComm(t *testing.T) {
	ds := testDataset(t, 100, 4, 33)
	e, err := NewEngine(ds, Options{Workers: 1, Mode: DepComm, Model: nn.GCN, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.RunEpoch()
	// With one worker there are no dependencies and no replicas.
	if e.CacheBytes() != 0 {
		t.Fatal("single worker cached something")
	}
}

func TestMemBudgetLimitsHybridReplicas(t *testing.T) {
	ds := testDataset(t, 300, 10, 34)
	costs := costmodel.Costs{Tv: 1e-9, Te: 1e-10, Tc: 1e-3} // cache-greedy regime
	opts := Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 10}
	unlimited, err := newTuned(ds, opts, fixedCosts(costs, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer unlimited.Close()
	limited, err := newTuned(ds, opts, fixedCosts(costs, 4096))
	if err != nil {
		t.Fatal(err)
	}
	defer limited.Close()
	if limited.CacheBytes() >= unlimited.CacheBytes() {
		t.Fatalf("budgeted %d >= unlimited %d", limited.CacheBytes(), unlimited.CacheBytes())
	}
	// Both must still train correctly.
	ref := referenceLosses(ds, nn.GCN, 2, 10+7-7)
	_ = ref
	limited.RunEpoch()
	if !limited.ReplicasInSync() {
		t.Fatal("budgeted hybrid diverged")
	}
}

func TestBroadcastModeMatchesReference(t *testing.T) {
	ds := testDataset(t, 200, 6, 35)
	const epochs = 3
	ref := referenceLosses(ds, nn.GCN, epochs, 15)
	got := engineLosses(t, ds, Options{
		Workers: 3, Mode: DepComm, Model: nn.GCN, Seed: 15, Broadcast: true,
	}, epochs)
	assertLossesClose(t, "broadcast", got, ref, 2e-3)
}

func TestBroadcastMovesMoreBytes(t *testing.T) {
	ds := testDataset(t, 300, 8, 36)
	run := func(broadcast bool) int64 {
		tr := obs.NewTracer()
		e, err := NewEngine(ds, Options{
			Workers: 4, Mode: DepComm, Model: nn.GCN, Seed: 16,
			Broadcast: broadcast, Tracer: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.RunEpoch()
		return stampedBytes(tr)
	}
	chunked := run(false)
	broadcast := run(true)
	if broadcast <= chunked {
		t.Fatalf("broadcast bytes %d <= chunked %d", broadcast, chunked)
	}
}

func TestParamServerMatchesReference(t *testing.T) {
	ds := testDataset(t, 200, 6, 37)
	const epochs = 3
	ref := referenceLosses(ds, nn.GCN, epochs, 17)
	got := engineLosses(t, ds, Options{
		Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 17, ParamServer: true,
	}, epochs)
	assertLossesClose(t, "paramserver", got, ref, 2e-3)
}

func TestParamServerSingleWorker(t *testing.T) {
	ds := testDataset(t, 80, 4, 38)
	e, err := NewEngine(ds, Options{Workers: 1, Mode: Hybrid, Model: nn.GCN, Seed: 18, ParamServer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stats := e.Train(3)
	if stats[2].Loss >= stats[0].Loss {
		t.Fatalf("PS single worker did not learn: %v", stats)
	}
}

// referenceLossesDepth mirrors referenceLosses for arbitrary model depth.
func referenceLossesDepth(ds *dataset.Dataset, kind nn.ModelKind, layers, epochs int, seed uint64) []float64 {
	dims := []int{ds.Spec.FeatureDim}
	for l := 1; l < layers; l++ {
		dims = append(dims, ds.Spec.HiddenDim)
	}
	dims = append(dims, ds.Spec.NumClasses)
	model := nn.MustNewModel(kind, dims, 0, seed+7)
	opt := nn.NewAdam(0.01)
	out := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		loss := ReferenceTrainStep(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
		opt.Step(model.Params())
		nn.ZeroGrads(model.Params())
		out = append(out, loss)
	}
	return out
}

// Depth 3 exercises two-hop dependency subtrees in DepCache and the hybrid
// planner — the structurally hardest path in the plan derivation.
func TestThreeLayerModelsMatchReference(t *testing.T) {
	ds := testDataset(t, 180, 4, 40)
	const epochs = 3
	ref := referenceLossesDepth(ds, nn.GCN, 3, epochs, 23)
	for _, mode := range []Mode{DepCache, DepComm, Hybrid} {
		got := engineLosses(t, ds, Options{
			Workers: 3, Mode: mode, Model: nn.GCN, Layers: 3, Seed: 23,
		}, epochs)
		assertLossesClose(t, fmt.Sprintf("3layer/%s", mode), got, ref, 2e-3)
	}
}

func TestFourLayerHybrid(t *testing.T) {
	ds := testDataset(t, 120, 3, 41)
	ref := referenceLossesDepth(ds, nn.GCN, 4, 2, 29)
	got := engineLosses(t, ds, Options{
		Workers: 4, Mode: Hybrid, Model: nn.GCN, Layers: 4, Seed: 29,
		Ring: true, Overlap: true,
	}, 2)
	assertLossesClose(t, "4layer", got, ref, 2e-3)
}

// TestPlanForProbesHostOnce: T_v and T_e describe the host, so engines
// planned over different network profiles in one process — faulted or not —
// price compute with the same probed factors, and each prices communication
// with costmodel.CommFactor of its own profile.
func TestPlanForProbesHostOnce(t *testing.T) {
	ds := testDataset(t, 60, 4, 47)
	spec, err := comm.ParseFaultSpec("drop=0.05,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	faulted := comm.ProfileECS
	faulted.Fault = spec
	var first costmodel.Costs
	for i, profile := range []comm.NetworkProfile{comm.ProfileECS, comm.ProfileIBV, faulted, comm.ProfileLocal} {
		plan, err := PlanFor(ds, Options{Workers: 2, Mode: DepComm, Model: nn.GCN, Seed: 1, Profile: profile}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := plan.Planner.Costs
		if i == 0 {
			first = c
		}
		if c.Tv != first.Tv || c.Te != first.Te {
			t.Errorf("%s: Tv %g Te %g, %s planned with Tv %g Te %g", profile.Name, c.Tv, c.Te, comm.ProfileECS.Name, first.Tv, first.Te)
		}
		if want := costmodel.CommFactor(profile.BytesPerSec, profile.Latency); c.Tc != want {
			t.Errorf("%s: Tc %g, want CommFactor's %g", profile.Name, c.Tc, want)
		}
	}
	if first.Tv <= 0 || first.Te <= 0 {
		t.Fatalf("probed factors %+v not positive", first)
	}
}

// Any valid per-layer cache/communicate split — including splits no cost
// model would ever choose — must produce the exact full-graph gradients.
// This fuzzes the plan derivation (subtree expansion, row maps, mirror
// exchange) far outside the paths the three standard modes exercise.
func TestRandomDecisionsMatchReference(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		seed := uint64(500 + trial)
		ds := testDataset(t, 160, 5, seed)
		const workers = 3
		opts := Options{Workers: workers, Mode: Hybrid, Model: nn.GCN, Seed: seed}
		plan, err := PlanFor(ds, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		part := plan.Planner.Part
		rng := tensor.NewRNG(seed * 31)
		decs := make([]*hybrid.Decision, workers)
		for w := 0; w < workers; w++ {
			// Recompute this worker's dependency set.
			depSet := map[int32]struct{}{}
			for _, v := range part.Parts[w] {
				for _, u := range ds.Graph.InNeighbors(v) {
					if part.Assign[u] != int32(w) {
						depSet[u] = struct{}{}
					}
				}
			}
			d := &hybrid.Decision{R: make([][]int32, 2), C: make([][]int32, 2)}
			for u := range depSet {
				for l := 0; l < 2; l++ {
					if rng.Float32() < 0.5 {
						d.R[l] = append(d.R[l], u)
					} else {
						d.C[l] = append(d.C[l], u)
					}
				}
			}
			decs[w] = d
		}
		// The run step executes any plan it is handed, not only a priced one.
		e, err := New(ds, &Plan{Planner: plan.Planner, Decisions: decs}, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceLosses(ds, nn.GCN, 3, seed)
		var got []float64
		for i := 0; i < 3; i++ {
			got = append(got, e.RunEpoch().Loss)
		}
		if !e.ReplicasInSync() {
			t.Fatalf("trial %d: replicas diverged", trial)
		}
		e.Close()
		assertLossesClose(t, fmt.Sprintf("random-decision trial %d", trial), got, ref, 2e-3)
	}
}
