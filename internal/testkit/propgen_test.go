package testkit

import (
	"testing"

	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// TestRandomDatasetValidity checks the generator's contract over many seeds
// and confirms the hazard classes it exists to produce (self-loops,
// multi-edges, disconnected components, zero-degree vertices) all actually
// occur.
func TestRandomDatasetValidity(t *testing.T) {
	var selfLoops, multiEdges, disconnected, zeroDegree int
	for seed := uint64(0); seed < 100; seed++ {
		ds := RandomDataset(tensor.NewRNG(seed), GenSpec{})
		n := ds.Graph.NumVertices()
		if n < 2 {
			t.Fatalf("seed %d: %d vertices", seed, n)
		}
		if ds.Features.Rows() != n || len(ds.Labels) != n || len(ds.TrainMask) != n {
			t.Fatalf("seed %d: inconsistent sizes", seed)
		}
		hasOut := make([]bool, n)
		for _, u := range ds.Graph.InSources() {
			hasOut[u] = true
		}
		anyTrain := false
		for v := 0; v < n; v++ {
			if int(ds.Labels[v]) >= ds.Spec.NumClasses {
				t.Fatalf("seed %d: label %d out of range", seed, ds.Labels[v])
			}
			anyTrain = anyTrain || ds.TrainMask[v]
			if ds.Graph.InDegree(int32(v)) == 0 && !hasOut[v] {
				zeroDegree++
			}
		}
		if !anyTrain {
			t.Fatalf("seed %d: empty train mask", seed)
		}
		seen := map[graph.Edge]bool{}
		for _, e := range ds.Graph.Edges() {
			if e.Src == e.Dst {
				selfLoops++
			}
			if seen[e] {
				multiEdges++
			}
			seen[e] = true
		}
		if components(ds.Graph) > 1 {
			disconnected++
		}
	}
	if selfLoops == 0 || multiEdges == 0 || disconnected == 0 || zeroDegree == 0 {
		t.Errorf("hazard classes missing: selfloops=%d multiedges=%d disconnected=%d zerodegree=%d",
			selfLoops, multiEdges, disconnected, zeroDegree)
	}
}

// components counts weakly connected components.
func components(g *graph.Graph) int {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	for _, e := range g.Edges() {
		parent[find(e.Src)] = find(e.Dst)
	}
	comps := 0
	for i := range parent {
		if find(int32(i)) == int32(i) {
			comps++
		}
	}
	return comps
}

// TestEnginesMatchReferenceOnRandomGraphs hunts for structural corner cases
// the fixed-fixture tests might miss: every generated graph must train
// identically under all dependency-management policies. A violation is
// shrunk and printed as a minimal counterexample.
func TestEnginesMatchReferenceOnRandomGraphs(t *testing.T) {
	trials := 3
	if FullSweep() {
		trials = 15
	}
	ce := Check(trials, 0xABCD, GenSpec{MaxVertices: 14}, RunEquivalenceProperty(OracleOptions{
		Workers: 2, Epochs: 2, Seed: 5,
	}))
	if ce != nil {
		t.Fatalf("policy divergence on random graph:\n%s", ce)
	}
}
