package partition

import "testing"

// bruteReplicaSet is the recursive specification BuildReplicas's downward
// iteration must match: need(v, k) marks v at level k and, for k > 0, needs
// v itself and its non-owned in-neighbors at k-1 (the self chain plus the
// aggregation inputs).
func bruteReplicaSet(t *testing.T, g interface {
	InNeighbors(int32) []int32
	NumVertices() int
}, p *Partition, worker, levels int) []map[int32]struct{} {
	t.Helper()
	sets := make([]map[int32]struct{}, levels)
	for k := range sets {
		sets[k] = make(map[int32]struct{})
	}
	var need func(v int32, k int)
	need = func(v int32, k int) {
		if _, ok := sets[k][v]; ok {
			return
		}
		sets[k][v] = struct{}{}
		if k == 0 {
			return
		}
		need(v, k-1)
		for _, u := range g.InNeighbors(v) {
			if p.Assign[u] != int32(worker) {
				need(u, k-1)
			}
		}
	}
	for _, v := range p.Parts[worker] {
		for _, u := range g.InNeighbors(v) {
			if p.Assign[u] != int32(worker) {
				need(u, levels-1)
			}
		}
	}
	return sets
}

func TestBuildReplicasMatchesRecursiveClosure(t *testing.T) {
	for _, tc := range []struct {
		n      int
		deg    float64
		parts  int
		levels int
		seed   uint64
	}{
		{60, 4, 3, 2, 7},
		{120, 6, 4, 3, 8},
		{40, 3, 5, 1, 9},
	} {
		g := testGraph(t, tc.n, tc.deg, tc.seed)
		p, err := New(Chunk, g, tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		rp := BuildReplicas(g, p, tc.levels)
		for w := 0; w < tc.parts; w++ {
			want := bruteReplicaSet(t, g, p, w, tc.levels)
			for k := 0; k < tc.levels; k++ {
				got := rp.Sets[w][k]
				if len(got) != len(want[k]) {
					t.Fatalf("n=%d parts=%d: worker %d level %d: %d replicas, recursion says %d",
						tc.n, tc.parts, w, k, len(got), len(want[k]))
				}
				for i, v := range got {
					if _, ok := want[k][v]; !ok {
						t.Fatalf("worker %d level %d: vertex %d not in the recursive closure", w, k, v)
					}
					if i > 0 && got[i-1] >= v {
						t.Fatalf("worker %d level %d: replica list not strictly ascending at %d", w, k, i)
					}
					if p.Assign[v] == int32(w) {
						t.Fatalf("worker %d level %d: owned vertex %d listed as replica", w, k, v)
					}
				}
			}
		}
	}
}

func TestReplicaFactor(t *testing.T) {
	g := testGraph(t, 200, 6, 4)
	// One worker owns everything: no replicas, factor exactly 1.
	p1, err := New(Chunk, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f := BuildReplicas(g, p1, 2).Factor(); f != 1 {
		t.Fatalf("1-worker factor = %g, want 1", f)
	}
	p4, err := New(Chunk, g, 4)
	if err != nil {
		t.Fatal(err)
	}
	rp := BuildReplicas(g, p4, 2)
	f := rp.Factor()
	if f <= 1 {
		t.Fatalf("4-worker factor = %g, want > 1 on a connected RMAT graph", f)
	}
	want := float64(g.NumVertices()+rp.Replicas()) / float64(g.NumVertices())
	if f != want {
		t.Fatalf("factor = %g, want (|V|+replicas)/|V| = %g", f, want)
	}
}
