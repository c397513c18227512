package testkit

import (
	"fmt"
	"reflect"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/partition"
)

// planCost sums the exact modeled per-epoch cost of a plan across workers.
func planCost(p *hybrid.Planner, decs []*hybrid.Decision) float64 {
	var total float64
	for w := range decs {
		ch := p.Charge(w, decs[w])
		total += ch.CacheCost + ch.CommCost
	}
	return total
}

// plannerCostRegimes spans the decision space: comm-dominant (everything
// should cache), balanced (mixed plans wherever the model's layer 1 is not
// bound or L > 2), and compute-dominant (everything should communicate or go
// tensor-parallel).
var plannerCostRegimes = []costmodel.Costs{
	{Tv: 1e-9, Te: 1e-10, Tc: 1e-6},
	oracleCosts,
	{Tv: 1e-7, Te: 1e-8, Tc: 1e-9},
}

// threeWayPlannerProperty checks, on one random dataset, that the 3-way plan
// is never worse on modeled cost than any pure policy or the 2-way greedy,
// and that planning twice yields a deeply equal plan (determinism). A
// violating dataset shrinks to a minimal counterexample like any other
// property.
func threeWayPlannerProperty(workers int, sliceTP bool) Property {
	return func(ds *dataset.Dataset) error {
		m := workers
		if n := ds.Graph.NumVertices(); m > n {
			m = n
		}
		part, err := partition.New(partition.Chunk, ds.Graph, m)
		if err != nil {
			return err
		}
		dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
		for _, costs := range plannerCostRegimes {
			p := &hybrid.Planner{
				Graph: ds.Graph, Part: part, Dims: dims,
				Costs: costs, SliceTP: sliceTP,
			}
			plan, err := p.DecideAll(hybrid.ModeHybrid3)
			if err != nil {
				return err
			}
			got := planCost(p, plan)
			for _, pure := range []struct {
				name string
				mode hybrid.Mode
			}{
				{"allcomm", hybrid.ModeAllComm},
				{"allcache", hybrid.ModeAllCache},
				{"alltp", hybrid.ModeAllTP},
				{"greedy", hybrid.ModeHybrid},
			} {
				ref, err := p.DecideAll(pure.mode)
				if err != nil {
					return err
				}
				if c := planCost(p, ref); got > c*(1+1e-12) {
					return fmt.Errorf("costs %+v: 3-way plan modeled cost %.12g exceeds %s's %.12g",
						costs, got, pure.name, c)
				}
			}
			again, err := p.DecideAll(hybrid.ModeHybrid3)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(plan, again) {
				return fmt.Errorf("costs %+v: 3-way planning nondeterministic across runs", costs)
			}
		}
		return nil
	}
}

// TestThreeWayPlannerNeverWorseOnRandomGraphs hunts random graphs for a 3-way
// plan that loses to a pure policy under its own cost model — which would
// mean the candidate argmin is broken — in both TP dataflows.
func TestThreeWayPlannerNeverWorseOnRandomGraphs(t *testing.T) {
	trials := 5
	if FullSweep() {
		trials = 25
	}
	for _, sliceTP := range []bool{true, false} {
		if ce := Check(trials, 0x7F3, GenSpec{MaxVertices: 20}, threeWayPlannerProperty(3, sliceTP)); ce != nil {
			t.Fatalf("planner property violated (sliceTP=%v):\n%s", sliceTP, ce)
		}
	}
}

// fourWayPlannerProperty is threeWayPlannerProperty's extension to hybrid4:
// the 4-way plan is never worse on modeled cost than any pure policy
// (including full replication) or the 2-way greedy, and planning is
// deterministic.
func fourWayPlannerProperty(workers int, sliceTP bool) Property {
	return func(ds *dataset.Dataset) error {
		m := workers
		if n := ds.Graph.NumVertices(); m > n {
			m = n
		}
		part, err := partition.New(partition.Chunk, ds.Graph, m)
		if err != nil {
			return err
		}
		dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
		for _, costs := range plannerCostRegimes {
			p := &hybrid.Planner{
				Graph: ds.Graph, Part: part, Dims: dims,
				Costs: costs, SliceTP: sliceTP, RepBudget: -1,
			}
			plan, err := p.DecideAll(hybrid.ModeHybrid4)
			if err != nil {
				return err
			}
			got := planCost(p, plan)
			for _, pure := range []struct {
				name string
				mode hybrid.Mode
			}{
				{"allcomm", hybrid.ModeAllComm},
				{"allcache", hybrid.ModeAllCache},
				{"alltp", hybrid.ModeAllTP},
				{"allrep", hybrid.ModeAllRep},
				{"greedy", hybrid.ModeHybrid},
			} {
				ref, err := p.DecideAll(pure.mode)
				if err != nil {
					return err
				}
				if c := planCost(p, ref); got > c*(1+1e-12) {
					return fmt.Errorf("costs %+v: 4-way plan modeled cost %.12g exceeds %s's %.12g",
						costs, got, pure.name, c)
				}
			}
			again, err := p.DecideAll(hybrid.ModeHybrid4)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(plan, again) {
				return fmt.Errorf("costs %+v: 4-way planning nondeterministic across runs", costs)
			}
		}
		return nil
	}
}

// TestFourWayPlannerNeverWorseOnRandomGraphs is the hybrid4 counterpart of the
// 3-way hunt, with the replicated suffix family enabled (unlimited RepBudget).
func TestFourWayPlannerNeverWorseOnRandomGraphs(t *testing.T) {
	trials := 5
	if FullSweep() {
		trials = 25
	}
	for _, sliceTP := range []bool{true, false} {
		if ce := Check(trials, 0x7F3, GenSpec{MaxVertices: 20}, fourWayPlannerProperty(3, sliceTP)); ce != nil {
			t.Fatalf("planner property violated (sliceTP=%v):\n%s", sliceTP, ce)
		}
	}
}

// TestFourWayDegeneratesToThreeWayWithoutRepBudget: a positive RepBudget that
// no replica fits (every replica stores at least one 4-byte element) makes
// the replicated candidate infeasible wherever a worker has a remote
// dependency, and where none has, it ties at zero with pure communication
// and loses the tie. Either way hybrid4 must produce a plan deeply equal to
// hybrid3's on any graph.
func TestFourWayDegeneratesToThreeWayWithoutRepBudget(t *testing.T) {
	trials := 5
	if FullSweep() {
		trials = 25
	}
	prop := func(ds *dataset.Dataset) error {
		m := 3
		if n := ds.Graph.NumVertices(); m > n {
			m = n
		}
		part, err := partition.New(partition.Chunk, ds.Graph, m)
		if err != nil {
			return err
		}
		dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
		for _, costs := range plannerCostRegimes {
			p := &hybrid.Planner{
				Graph: ds.Graph, Part: part, Dims: dims,
				Costs: costs, SliceTP: true, RepBudget: 1,
			}
			p3, err := p.DecideAll(hybrid.ModeHybrid3)
			if err != nil {
				return err
			}
			p4, err := p.DecideAll(hybrid.ModeHybrid4)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(p3, p4) {
				return fmt.Errorf("costs %+v: hybrid4 with RepBudget=1 differs from hybrid3", costs)
			}
		}
		return nil
	}
	if ce := Check(trials, 0x7F3, GenSpec{MaxVertices: 20}, prop); ce != nil {
		t.Fatalf("degeneracy property violated:\n%s", ce)
	}
}

// TestFourWayPrefersRepWhenCommUnaffordable drives the planner into the
// regime the replicated family exists for: communication is priced
// prohibitively (huge Tc makes every per-epoch fetch and TP collective
// enormous), while a 1-byte MemBudget bars full-precision caching — only the
// replicated store (unlimited RepBudget; its one-time broadcast is not a
// per-epoch cost) escapes the traffic. The chosen plan must replicate. Zero
// and negative RepBudgets both mean unlimited, as MemBudget's zero does.
func TestFourWayPrefersRepWhenCommUnaffordable(t *testing.T) {
	ds := SmallDataset(32, 4, 11)
	part, err := partition.New(partition.Chunk, ds.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
	for _, repBudget := range []int64{-1, 0} {
		p := &hybrid.Planner{
			Graph: ds.Graph, Part: part, Dims: dims,
			Costs:     costmodel.Costs{Tv: 1e-12, Te: 1e-13, Tc: 1e6},
			SliceTP:   true,
			MemBudget: 1,
			RepBudget: repBudget,
		}
		plan, err := p.DecideAll(hybrid.ModeHybrid4)
		if err != nil {
			t.Fatal(err)
		}
		for w, d := range plan {
			if d.NumRep() == 0 {
				t.Fatalf("RepBudget %d worker %d: expected a replicated suffix under Tc=1e6, got TP=%v Rep=%v", repBudget, w, d.TP, d.Rep)
			}
			if comm := p.Charge(w, d).CommCost; comm != 0 {
				t.Fatalf("RepBudget %d worker %d: replicated plan still models per-epoch comm cost %g", repBudget, w, comm)
			}
		}
	}
}

// TestFourWayTieOrdering pins the extended tie rule on a degenerate instance:
// with one worker every candidate's modeled cost is exactly zero, and the
// strict argmin must keep the first candidate — pure communication, so no
// caching, no TP and no replication survives the tie against comm.
func TestFourWayTieOrdering(t *testing.T) {
	ds := SmallDataset(16, 3, 5)
	part, err := partition.New(partition.Chunk, ds.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
	p := &hybrid.Planner{
		Graph: ds.Graph, Part: part, Dims: dims,
		Costs: oracleCosts, SliceTP: true, RepBudget: -1,
	}
	plan, err := p.DecideAll(hybrid.ModeHybrid4)
	if err != nil {
		t.Fatal(err)
	}
	for w, d := range plan {
		if d.NumTP() != 0 || d.NumRep() != 0 {
			t.Fatalf("worker %d: zero-cost tie chose TP=%v Rep=%v, want the comm candidate", w, d.TP, d.Rep)
		}
		for l, r := range d.R {
			if len(r) != 0 {
				t.Fatalf("worker %d layer %d: zero-cost tie cached %d deps, want the comm candidate", w, l+1, len(r))
			}
		}
	}
}
