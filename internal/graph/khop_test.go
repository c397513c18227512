package graph

import "testing"

// Supplementary k-hop tests beyond graph_test.go: cycles and
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
