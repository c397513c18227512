package partition

import (
	"testing"
	"testing/quick"
	"time"

	"neutronstar/internal/dataset"
	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

func testGraph(t testing.TB, n int, avgDeg float64, seed uint64) *graph.Graph {
	t.Helper()
	d := dataset.Load(dataset.Spec{
		Name: "t", Vertices: n, AvgDegree: avgDeg, FeatureDim: 4,
		NumClasses: 4, HiddenDim: 4, Gen: dataset.GenRMAT, Seed: seed,
	})
	return d.Graph
}

func TestAllAlgorithmsValid(t *testing.T) {
	g := testGraph(t, 1000, 8, 1)
	for _, algo := range []Algorithm{Chunk, Metis, Fennel} {
		for _, parts := range []int{1, 2, 4, 7, 16} {
			p, err := New(algo, g, parts)
			if err != nil {
				t.Fatalf("%s/%d: %v", algo, parts, err)
			}
			if err := p.Validate(g.NumVertices()); err != nil {
				t.Fatalf("%s/%d: %v", algo, parts, err)
			}
			if p.NumParts != parts {
				t.Fatalf("%s: NumParts = %d", algo, p.NumParts)
			}
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	g := testGraph(t, 10, 2, 2)
	if _, err := New("bogus", g, 2); err == nil {
		t.Fatal("expected error")
	}
	if _, err := New(Chunk, g, 0); err == nil {
		t.Fatal("expected error for 0 parts")
	}
}

func TestChunkIsContiguous(t *testing.T) {
	g := testGraph(t, 500, 6, 3)
	p, _ := New(Chunk, g, 4)
	// Assignments must be non-decreasing over vertex ids.
	for v := 1; v < g.NumVertices(); v++ {
		if p.Assign[v] < p.Assign[v-1] {
			t.Fatalf("chunk assignment decreases at %d", v)
		}
	}
}

func TestChunkBalancesLoad(t *testing.T) {
	g := testGraph(t, 2000, 10, 4)
	p, _ := New(Chunk, g, 8)
	q := Evaluate(p, g)
	if q.Imbalance > 1.5 {
		t.Fatalf("chunk imbalance %v", q.Imbalance)
	}
}

func TestMetisBeatsChunkOnCut(t *testing.T) {
	// SBM graphs have community structure a cut-aware partitioner exploits.
	d := dataset.Load(dataset.Spec{
		Name: "sbm", Vertices: 2000, AvgDegree: 10, FeatureDim: 4,
		NumClasses: 8, HiddenDim: 4, Gen: dataset.GenSBM, Homophily: 0.9, Seed: 5,
	})
	chunk, _ := New(Chunk, d.Graph, 8)
	metis, _ := New(Metis, d.Graph, 8)
	qc, qm := Evaluate(chunk, d.Graph), Evaluate(metis, d.Graph)
	if qm.EdgeCut >= qc.EdgeCut {
		t.Fatalf("metis cut %d >= chunk cut %d", qm.EdgeCut, qc.EdgeCut)
	}
}

func TestFennelCutReasonable(t *testing.T) {
	d := dataset.Load(dataset.Spec{
		Name: "sbm", Vertices: 2000, AvgDegree: 10, FeatureDim: 4,
		NumClasses: 8, HiddenDim: 4, Gen: dataset.GenSBM, Homophily: 0.9, Seed: 6,
	})
	chunk, _ := New(Chunk, d.Graph, 8)
	fennel, _ := New(Fennel, d.Graph, 8)
	qc, qf := Evaluate(chunk, d.Graph), Evaluate(fennel, d.Graph)
	if float64(qf.EdgeCut) > 1.05*float64(qc.EdgeCut) {
		t.Fatalf("fennel cut %d much worse than chunk %d", qf.EdgeCut, qc.EdgeCut)
	}
	if qf.Imbalance > 1.25 {
		t.Fatalf("fennel imbalance %v", qf.Imbalance)
	}
}

func TestMetisBalance(t *testing.T) {
	g := testGraph(t, 3000, 8, 7)
	p, _ := New(Metis, g, 8)
	maxSize, minSize := 0, g.NumVertices()
	for i := 0; i < 8; i++ {
		s := len(p.Parts[i])
		if s > maxSize {
			maxSize = s
		}
		if s < minSize {
			minSize = s
		}
	}
	mean := g.NumVertices() / 8
	if maxSize > mean*13/10 {
		t.Fatalf("metis part too large: %d vs mean %d", maxSize, mean)
	}
}

func TestSinglePartHasZeroCut(t *testing.T) {
	g := testGraph(t, 300, 5, 8)
	for _, algo := range []Algorithm{Chunk, Metis, Fennel} {
		p, _ := New(algo, g, 1)
		q := Evaluate(p, g)
		if q.EdgeCut != 0 {
			t.Fatalf("%s: single part has cut %d", algo, q.EdgeCut)
		}
	}
}

func TestOwnerMatchesParts(t *testing.T) {
	g := testGraph(t, 400, 6, 9)
	p, _ := New(Fennel, g, 5)
	for i, part := range p.Parts {
		for _, v := range part {
			if p.Owner(v) != int32(i) {
				t.Fatalf("Owner(%d) = %d, in part %d", v, p.Owner(v), i)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := testGraph(t, 100, 4, 10)
	p, _ := New(Chunk, g, 4)
	p.Assign[0] = 3 // contradicts Parts
	if err := p.Validate(g.NumVertices()); err == nil {
		t.Fatal("Validate missed corrupted assignment")
	}
}

// TestMoreParts_ThanVertices: every algorithm partitions a graph with fewer
// vertices than parts, leaving parts empty, and returns — a hang fails the
// test at its timeout instead of stalling the suite.
func TestMoreParts_ThanVertices(t *testing.T) {
	for _, n := range []int{1, 3} {
		g := graph.MustFromEdges(n, []graph.Edge{{Src: 0, Dst: int32(n - 1)}})
		for _, algo := range []Algorithm{Chunk, Metis, Fennel} {
			for _, parts := range []int{n + 1, 8} {
				done := make(chan error, 1)
				go func() {
					p, err := New(algo, g, parts)
					if err == nil {
						err = p.Validate(n)
					}
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("%s, %d vertices, %d parts: %v", algo, n, parts, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s, %d vertices, %d parts: no partition after 10s", algo, n, parts)
				}
			}
		}
	}
}

// Property: every algorithm covers all vertices exactly once on random graphs.
func TestQuickPartitionCoverage(t *testing.T) {
	f := func(seed uint64, n8, p8 uint8) bool {
		n := int(n8%200) + 16
		parts := int(p8%8) + 1
		rng := tensor.NewRNG(seed)
		edges := make([]graph.Edge, n*3)
		for i := range edges {
			edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		g := graph.MustFromEdges(n, edges)
		for _, algo := range []Algorithm{Chunk, Metis, Fennel} {
			p, err := New(algo, g, parts)
			if err != nil || p.Validate(n) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMetis10k(b *testing.B) {
	g := testGraph(b, 10000, 10, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multilevelPartition(g, 8)
	}
}

func BenchmarkFennel10k(b *testing.B) {
	g := testGraph(b, 10000, 10, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fennelPartition(g, 8)
	}
}

// TestMultilevelBalancedAndDeterministic: on a block-structured graph the
// multilevel partition is valid, balanced, and the same on every run.
func TestMultilevelBalancedAndDeterministic(t *testing.T) {
	d := dataset.Load(dataset.Spec{
		Name: "sbm-ml", Vertices: 4000, AvgDegree: 10, FeatureDim: 4,
		NumClasses: 8, HiddenDim: 4, Gen: dataset.GenSBM, Homophily: 0.9, Seed: 77,
	})
	ml := multilevelPartition(d.Graph, 8)
	if err := ml.Validate(d.Graph.NumVertices()); err != nil {
		t.Fatal(err)
	}
	qm := Evaluate(ml, d.Graph)
	if qm.Imbalance > 1.35 {
		t.Fatalf("multilevel imbalance %v", qm.Imbalance)
	}
	// Determinism: repeated runs produce the identical assignment.
	ml2 := multilevelPartition(d.Graph, 8)
	for v := range ml.Assign {
		if ml.Assign[v] != ml2.Assign[v] {
			t.Fatalf("multilevel partition nondeterministic at vertex %d", v)
		}
	}
}

func TestMultilevelSmallGraphFallback(t *testing.T) {
	g := graph.MustFromEdges(10, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})
	p := multilevelPartition(g, 4)
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenPreservesTotalWeight(t *testing.T) {
	d := dataset.Load(dataset.Spec{
		Name: "c", Vertices: 1000, AvgDegree: 8, FeatureDim: 4,
		NumClasses: 4, HiddenDim: 4, Gen: dataset.GenRMAT, Seed: 13,
	})
	wg := buildWeighted(d.Graph)
	total := wg.totalVertexWeight()
	coarse, f2c := coarsen(wg)
	if coarse == nil {
		t.Fatal("coarsening made no progress on a dense graph")
	}
	if coarse.totalVertexWeight() != total {
		t.Fatalf("coarse weight %d != fine %d", coarse.totalVertexWeight(), total)
	}
	if coarse.numVertices() >= wg.numVertices() {
		t.Fatal("coarsening did not shrink the graph")
	}
	for v, c := range f2c {
		if c < 0 || int(c) >= coarse.numVertices() {
			t.Fatalf("vertex %d mapped to invalid coarse id %d", v, c)
		}
	}
}
