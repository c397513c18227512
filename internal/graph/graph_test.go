package graph

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"neutronstar/internal/tensor"
)

// diamond: 0->1, 0->2, 1->3, 2->3, 3->0 (a cycle through a diamond).
func diamond() *Graph {
	return MustFromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
}

func TestFromEdgesBasic(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if got := g.InNeighbors(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("InNeighbors(3) = %v", got)
	}
	if g.InDegree(0) != 1 || g.InDegree(3) != 2 {
		t.Fatal("degree wrong")
	}
}

func TestFromEdgesRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("expected error for out-of-range dst")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}); err == nil {
		t.Fatal("expected error for negative src")
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond()
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 0) {
		t.Fatal("missing existing edge")
	}
	if g.HasEdge(1, 0) || g.HasEdge(2, 2) {
		t.Fatal("found non-existent edge")
	}
}

func TestSelfLoopsAndMultiEdges(t *testing.T) {
	g := MustFromEdges(2, []Edge{{0, 0}, {0, 1}, {0, 1}})
	if g.InDegree(0) != 1 || g.InDegree(1) != 2 {
		t.Fatal("self loop / multi edge degrees wrong")
	}
	if !g.HasEdge(0, 0) {
		t.Fatal("self loop lost")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {2, 1}, {1, 0}, {2, 0}}
	g := MustFromEdges(3, in)
	out := g.Edges()
	sortEdges(in)
	sortEdges(out)
	if len(in) != len(out) {
		t.Fatalf("edge count changed: %d vs %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("edge %d: %v vs %v", i, in[i], out[i])
		}
	}
}

func sortEdges(e []Edge) {
	sort.Slice(e, func(i, j int) bool {
		if e[i].Dst != e[j].Dst {
			return e[i].Dst < e[j].Dst
		}
		return e[i].Src < e[j].Src
	})
}

func TestKHopInClosure(t *testing.T) {
	// Chain 0->1->2->3 plus 4->2.
	g := MustFromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {4, 2}})
	hops := g.KHopInClosure([]int32{3}, 2)
	if len(hops) != 2 {
		t.Fatalf("hops = %d", len(hops))
	}
	if len(hops[0]) != 1 || hops[0][0] != 2 {
		t.Fatalf("hop1 = %v", hops[0])
	}
	if len(hops[1]) != 2 || hops[1][0] != 1 || hops[1][1] != 4 {
		t.Fatalf("hop2 = %v", hops[1])
	}
}

func TestComputeStats(t *testing.T) {
	g := MustFromEdges(4, []Edge{{0, 1}, {2, 1}, {3, 1}})
	s := ComputeStats(g)
	if s.NumVertices != 4 || s.NumEdges != 3 {
		t.Fatal("counts wrong")
	}
	if s.MaxInDegree != 3 {
		t.Fatalf("max degree = %d", s.MaxInDegree)
	}
	if math.Abs(s.AvgInDegree-0.75) > 1e-9 {
		t.Fatalf("avg = %v", s.AvgInDegree)
	}
	if s.Isolated != 0 {
		t.Fatalf("isolated = %d (vertex 0,2,3 have out-edges)", s.Isolated)
	}
	g2 := MustFromEdges(3, []Edge{{0, 1}})
	if ComputeStats(g2).Isolated != 1 {
		t.Fatal("vertex 2 should be isolated")
	}
}

func TestStatsEmptyGraph(t *testing.T) {
	g := MustFromEdges(0, nil)
	s := ComputeStats(g)
	if s.NumVertices != 0 || s.NumEdges != 0 {
		t.Fatal("empty graph stats wrong")
	}
	_ = s.String()
}

func TestGCNNormCoefficients(t *testing.T) {
	// 0->2, 1->2: din(2)=2, din(0)=din(1)=0.
	g := MustFromEdges(3, []Edge{{0, 2}, {1, 2}})
	edgeNorm, selfNorm := GCNNormCoefficients(g)
	want := 1 / math.Sqrt(3*1)
	for _, c := range edgeNorm {
		if math.Abs(float64(c)-want) > 1e-6 {
			t.Fatalf("edge norm = %v, want %v", c, want)
		}
	}
	if math.Abs(float64(selfNorm[2])-1.0/3) > 1e-6 {
		t.Fatalf("self norm(2) = %v", selfNorm[2])
	}
	if math.Abs(float64(selfNorm[0])-1) > 1e-6 {
		t.Fatalf("self norm(0) = %v", selfNorm[0])
	}
}

// Property: for random graphs, the in-degrees sum to |E| and the CSC holds
// every input edge, as a multiset.
func TestQuickCSCHoldsEveryEdge(t *testing.T) {
	f := func(seed uint64, n8, e8 uint8) bool {
		n := int(n8%20) + 1
		ne := int(e8 % 60)
		rng := tensor.NewRNG(seed)
		edges := make([]Edge, ne)
		for i := range edges {
			edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		g := MustFromEdges(n, edges)
		din := 0
		for v := 0; v < n; v++ {
			din += g.InDegree(int32(v))
		}
		if din != ne {
			return false
		}
		counts := map[Edge]int{}
		for _, e := range edges {
			counts[e]++
		}
		for _, e := range g.Edges() {
			counts[e]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedKeys(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, n := range []int{0, 1, 5, 33, 1000} {
		m := make(map[int32]bool, n)
		for len(m) < n {
			m[int32(rng.Intn(4*n))] = true
		}
		s := SortedKeys(m)
		if len(s) != n {
			t.Fatalf("n=%d: %d keys", n, len(s))
		}
		for i, v := range s {
			if !m[v] || (i > 0 && s[i-1] >= v) {
				t.Fatalf("n=%d: keys %v not the ascending key set", n, s)
			}
		}
	}
}

func BenchmarkFromEdges100k(b *testing.B) {
	rng := tensor.NewRNG(1)
	const n, e = 10000, 100000
	edges := make([]Edge, e)
	for i := range edges {
		edges[i] = Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustFromEdges(n, edges)
	}
}
