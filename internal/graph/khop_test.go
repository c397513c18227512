package graph

import (
	"testing"
	"testing/quick"

	"neutronstar/internal/tensor"
)

// Supplementary k-hop and subgraph tests beyond graph_test.go: cycles and
// self-dependencies.

func TestKHopOnCycle(t *testing.T) {
	// 0 -> 1 -> 2 -> 0: every hop from any seed stays size 1 and cycles.
	g := MustFromEdges(3, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}})
	hops := g.KHopInClosure([]int32{1}, 4)
	want := []int32{0, 2, 1, 0}
	for h, hop := range hops {
		if len(hop) != 1 || hop[0] != want[h] {
			t.Fatalf("hop %d = %v, want [%d]", h+1, hop, want[h])
		}
	}
}

func TestKHopWithSelfLoop(t *testing.T) {
	g := MustFromEdges(2, []Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}})
	hops := g.KHopInClosure([]int32{1}, 2)
	if len(hops[0]) != 1 || hops[0][0] != 0 {
		t.Fatalf("hop1 = %v", hops[0])
	}
	// 0's in-neighborhood is itself.
	if len(hops[1]) != 1 || hops[1][0] != 0 {
		t.Fatalf("hop2 = %v", hops[1])
	}
}

func TestInducedSubgraphEmptySelection(t *testing.T) {
	g := MustFromEdges(3, []Edge{{Src: 0, Dst: 1}})
	sub, globals, toLocal := g.InducedSubgraph(nil)
	if sub.NumVertices() != 0 || sub.NumEdges() != 0 || len(globals) != 0 || len(toLocal) != 0 {
		t.Fatal("empty selection should give empty subgraph")
	}
}

// Property: induced subgraph preserves degrees restricted to the selection.
func TestQuickInducedSubgraphDegrees(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%20) + 4
		rng := tensor.NewRNG(seed)
		edges := make([]Edge, n*2)
		for i := range edges {
			edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		g := MustFromEdges(n, edges)
		// Select every other vertex.
		var sel []int32
		for v := int32(0); v < int32(n); v += 2 {
			sel = append(sel, v)
		}
		sub, globals, toLocal := g.InducedSubgraph(sel)
		for li, gv := range globals {
			want := 0
			for _, u := range g.InNeighbors(gv) {
				if _, ok := toLocal[u]; ok {
					want++
				}
			}
			if sub.InDegree(int32(li)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
