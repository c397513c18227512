package engine

import (
	"math"
	"strings"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
)

// TestEveryCandidateMatchesReference: the run step executes any plan the
// planner prices, not only its pick. On one small GCN instance under fixed
// costs, every ModeHybrid4 candidate — comm, greedy, cache, each TP suffix
// and the replicated suffix — trains to the single-machine reference's
// losses and parameters within 1e-5. With layer 1 bound, a 2-layer GCN's
// greedy caches all of layer 2 or none of it (Tv against Tc); a 10 kB cache
// budget stops it partway through layer 2 (Algorithm 4 lines 14–15), so its
// candidate runs a cached block beside fetched rows.
func TestEveryCandidateMatchesReference(t *testing.T) {
	ds := testDataset(t, 160, 5, 61)
	const epochs, tol = 3, 1e-5
	opts := Options{Workers: 4, Mode: Hybrid4, Model: nn.GCN, Seed: 8}
	plan, err := PlanFor(ds, opts, fixedCosts(costmodel.Costs{Tv: 2e-8, Te: 4e-9, Tc: 6e-8}, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Planner
	cands, err := p.Candidates(hybrid.ModeHybrid4)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"comm", "greedy", "cache", "tp2", "tp12", "rep2"}
	if len(cands) != len(names) {
		t.Fatalf("%d candidates, want %d (%v)", len(cands), len(names), names)
	}
	cached, comms := 0, 0
	for _, d := range cands[1].Plan {
		cached, comms = cached+d.NumCached(), comms+d.NumComm()
	}
	if cached == 0 || comms == 0 {
		t.Fatalf("greedy candidate caches %d and communicates %d dependencies: want a mixed plan", cached, comms)
	}

	model := nn.MustNewModel(opts.Model, p.Dims, 0, opts.Seed+7)
	adam := nn.NewAdam(0.01)
	var refLosses []float64
	for i := 0; i < epochs; i++ {
		refLosses = append(refLosses, ReferenceTrainStep(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask))
		adam.Step(model.Params())
		nn.ZeroGrads(model.Params())
	}

	for i, cand := range cands {
		t.Run(names[i], func(t *testing.T) {
			e, err := New(ds, &Plan{Planner: p, Decisions: cand.Plan}, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			// The handed plan is what runs: its TP layers run the slice
			// dataflow, and only a replicated top layer replicates.
			dec := cand.Plan[0]
			for l := 1; l < len(p.Dims); l++ {
				if _, tp := e.plans[0].layers[l-1].flow.(*tpSlice); tp != dec.TPAt(l) {
					t.Fatalf("layer %d runs tensor-parallel = %v, the plan says %v", l, tp, dec.TPAt(l))
				}
			}
			if rep := e.ReplicationFactor() > 1; rep != dec.RepAt(len(p.Dims)-1) {
				t.Fatalf("replication factor %g for a plan whose top layer is replicated = %v", e.ReplicationFactor(), !rep)
			}
			for ep, st := range e.Train(epochs) {
				if diff := math.Abs(st.Loss - refLosses[ep]); diff > tol*math.Max(1, math.Abs(refLosses[ep])) {
					t.Fatalf("epoch %d loss %.9g, reference %.9g", ep+1, st.Loss, refLosses[ep])
				}
			}
			if !e.ReplicasInSync() {
				t.Fatal("replicas diverged")
			}
			for k, ref := range model.Params() {
				scale := 1.0
				for _, v := range ref.Value.Data() {
					scale = math.Max(scale, math.Abs(float64(v)))
				}
				if diff := ref.Value.MaxAbsDiff(e.Params()[k].Value); diff > tol*scale {
					t.Fatalf("param %s deviates by %.3g", ref.Name, diff)
				}
			}
		})
	}
}

// TestNewRejectsMismatchedPlan: a handed plan that does not fit the run is an
// error, not a panic.
func TestNewRejectsMismatchedPlan(t *testing.T) {
	ds := testDataset(t, 120, 5, 62)
	opts := Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 3}
	plan := func(ds *dataset.Dataset, o Options) *Plan {
		t.Helper()
		pl, err := PlanFor(ds, o, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	good := plan(ds, opts)
	deep := opts
	deep.Layers = 3
	rows := []struct {
		name string
		plan *Plan
		opts Options
		want string
	}{
		{"decision count", &Plan{Planner: good.Planner, Decisions: good.Decisions[:3]}, opts, "3 decisions for 4 workers"},
		{"layer count", &Plan{Planner: good.Planner, Decisions: plan(ds, deep).Decisions}, opts, "has 3 layers"},
		{"graph", plan(testDataset(t, 120, 5, 63), opts), opts, "another graph"},
		{"workers", good, Options{Workers: 2, Mode: Hybrid, Model: nn.GCN, Seed: 3}, "4-part plan for 2 workers"},
		{"model", good, Options{Workers: 4, Mode: Hybrid, Model: nn.GAT, Seed: 3}, "SliceTP = true for model gat"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			e, err := New(ds, r.plan, r.opts)
			if err == nil {
				e.Close()
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), r.want) {
				t.Fatalf("error %q, want it to say %q", err, r.want)
			}
		})
	}
	e, err := New(ds, good, opts)
	if err != nil {
		t.Fatalf("the plan's own run: %v", err)
	}
	e.Close()
}

// TestLearningRateMustBeFinitePositive: a NaN, infinite or negative learning
// rate is an error from both the plan step and the run step — NaN used to
// train to a NaN loss, a negative rate to ascend it — while 0 keeps meaning
// the default.
func TestLearningRateMustBeFinitePositive(t *testing.T) {
	ds := testDataset(t, 120, 5, 64)
	opts := Options{Workers: 2, Mode: DepCache, Model: nn.GCN, Seed: 3}
	good, err := PlanFor(ds, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -1, -1e-30} {
		o := opts
		o.LR = lr
		if _, err := PlanFor(ds, o, nil); err == nil || !strings.Contains(err.Error(), "learning rate") {
			t.Errorf("PlanFor with LR %g: error %v, want one naming the learning rate", lr, err)
		}
		if e, err := New(ds, good, o); err == nil {
			e.Close()
			t.Errorf("New with LR %g: accepted", lr)
		}
	}
	for _, lr := range []float32{0, 1e-30, 0.01, math.MaxFloat32} {
		o := opts
		o.LR = lr
		e, err := New(ds, good, o)
		if err != nil {
			t.Fatalf("New with LR %g: %v", lr, err)
		}
		e.Close()
	}
}
