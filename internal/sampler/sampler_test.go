package sampler

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"neutronstar/internal/dataset"
	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

func sampleGraph(t testing.TB) *graph.Graph {
	t.Helper()
	d := dataset.Load(dataset.Spec{
		Name: "s", Vertices: 300, AvgDegree: 12, FeatureDim: 4,
		NumClasses: 4, HiddenDim: 4, Gen: dataset.GenRMAT, Seed: 77,
	})
	return d.Graph
}

func TestSampleBlockStructure(t *testing.T) {
	g := sampleGraph(t)
	rng := tensor.NewRNG(1)
	seeds := []int32{5, 17, 100}
	blocks := Sample(g, seeds, []int{25, 10}, rng)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	top := blocks[1]
	if len(top.Dsts) != 3 {
		t.Fatalf("top dsts = %v", top.Dsts)
	}
	// Fanout bound: each dst has at most 10 sampled in-edges in the top block.
	for d := 0; d+1 < len(top.Offsets); d++ {
		if n := top.Offsets[d+1] - top.Offsets[d]; n > 10 {
			t.Fatalf("dst %d sampled %d > 10", d, n)
		}
	}
	// Chaining: top block's sources are the bottom block's destinations.
	if len(top.Srcs) != len(blocks[0].Dsts) {
		t.Fatal("block frontiers not chained")
	}
	for i := range top.Srcs {
		if top.Srcs[i] != blocks[0].Dsts[i] {
			t.Fatal("frontier order mismatch")
		}
	}
	// Every sampled edge exists in the original graph.
	for e := range top.SrcRow {
		u := top.Srcs[top.SrcRow[e]]
		v := top.Dsts[top.EdgeDst[e]]
		if !g.HasEdge(u, v) {
			t.Fatalf("sampled nonexistent edge %d->%d", u, v)
		}
	}
	// SelfRow maps each dst to its own source row.
	for d, v := range top.Dsts {
		if top.Srcs[top.SelfRow[d]] != v {
			t.Fatal("SelfRow broken")
		}
	}
}

func TestSampleKeepsAllWhenDegreeUnderFanout(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{Src: 0, Dst: 3}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	blocks := Sample(g, []int32{3}, []int{10}, tensor.NewRNG(2))
	if n := len(blocks[0].SrcRow); n != 3 {
		t.Fatalf("edges = %d, want all 3", n)
	}
}

// TestSampleCarriesGCNCoefficients: every sampled edge u->v carries the bits
// of GCNNormCoefficients' entry for u->v, and every destination its self
// entry — a sample normalises by the graph's degrees, not the sample's.
func TestSampleCarriesGCNCoefficients(t *testing.T) {
	g := sampleGraph(t)
	edgeNorm, selfNorm := graph.GCNNormCoefficients(g)
	off := g.InOffsets()
	want := func(u, v int32) uint32 {
		for k, w := range g.InNeighbors(v) {
			if w == u {
				return math.Float32bits(edgeNorm[off[v]+int64(k)])
			}
		}
		t.Fatalf("sampled nonexistent edge %d->%d", u, v)
		return 0
	}
	blocks := Sample(g, []int32{5, 17, 100, 241}, []int{10, 5}, tensor.NewRNG(4))
	for l, b := range blocks {
		if len(b.EdgeNorm) != len(b.SrcRow) || len(b.SelfNorm) != len(b.Dsts) {
			t.Fatalf("block %d: %d edge and %d self coefficients for %d edges and %d destinations",
				l, len(b.EdgeNorm), len(b.SelfNorm), len(b.SrcRow), len(b.Dsts))
		}
		for e, c := range b.EdgeNorm {
			u, v := b.Srcs[b.SrcRow[e]], b.Dsts[b.EdgeDst[e]]
			if math.Float32bits(c) != want(u, v) {
				t.Fatalf("block %d edge %d->%d: coefficient %v, table %v", l, u, v, c, math.Float32frombits(want(u, v)))
			}
		}
		for d, v := range b.Dsts {
			if math.Float32bits(b.SelfNorm[d]) != math.Float32bits(selfNorm[v]) {
				t.Fatalf("block %d destination %d: self coefficient %v, table %v", l, v, b.SelfNorm[d], selfNorm[v])
			}
		}
	}
}

func TestSampleDeterministicPerRNG(t *testing.T) {
	g := sampleGraph(t)
	a := Sample(g, []int32{1, 2, 3}, []int{5, 5}, tensor.NewRNG(9))
	b := Sample(g, []int32{1, 2, 3}, []int{5, 5}, tensor.NewRNG(9))
	if len(a[0].SrcRow) != len(b[0].SrcRow) {
		t.Fatal("same seed produced different samples")
	}
	for i := range a[0].SrcRow {
		if a[0].SrcRow[i] != b[0].SrcRow[i] {
			t.Fatal("sample order differs")
		}
	}
}

func TestPickWithoutReplacement(t *testing.T) {
	rng := tensor.NewRNG(3)
	nbrs := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for trial := 0; trial < 50; trial++ {
		got := pick(nbrs, 4, rng)
		if len(got) != 4 {
			t.Fatalf("picked %d", len(got))
		}
		seen := map[int32]bool{}
		for _, v := range got {
			if seen[v] {
				t.Fatalf("duplicate pick %d", v)
			}
			seen[v] = true
		}
	}
}

func TestBatchIteratorCoversAll(t *testing.T) {
	ids := make([]int32, 23)
	for i := range ids {
		ids[i] = int32(i * 2)
	}
	it := NewBatchIterator(ids, 5, tensor.NewRNG(4))
	if it.NumBatches() != 5 {
		t.Fatalf("batches = %d", it.NumBatches())
	}
	seen := map[int32]int{}
	batches := 0
	for b := it.Next(); b != nil; b = it.Next() {
		batches++
		if len(b) > 5 {
			t.Fatalf("oversized batch %d", len(b))
		}
		for _, v := range b {
			seen[v]++
		}
	}
	if batches != 5 || len(seen) != 23 {
		t.Fatalf("batches=%d unique=%d", batches, len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("id %d seen %d times", v, c)
		}
	}
	// Reset starts a new epoch with a fresh shuffle.
	it.Reset()
	if it.Next() == nil {
		t.Fatal("Reset did not restart")
	}
}

func TestBatchIteratorEmpty(t *testing.T) {
	it := NewBatchIterator(nil, 4, tensor.NewRNG(5))
	if it.NumBatches() != 0 || it.Next() != nil {
		t.Fatal("empty iterator misbehaves")
	}
}

// Property: blocks always chain and respect fanouts on random graphs.
func TestQuickSampleValid(t *testing.T) {
	f := func(seed uint64, n8, f8 uint8) bool {
		n := int(n8%60) + 10
		fanout := int(f8%5) + 1
		rng := tensor.NewRNG(seed)
		edges := make([]graph.Edge, n*3)
		for i := range edges {
			edges[i] = graph.Edge{Src: int32(rng.Intn(n)), Dst: int32(rng.Intn(n))}
		}
		g := graph.MustFromEdges(n, edges)
		seeds := []int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		blocks := Sample(g, seeds, []int{fanout, fanout}, rng)
		for _, b := range blocks {
			for d := 0; d+1 < len(b.Offsets); d++ {
				if b.Offsets[d+1]-b.Offsets[d] > int32(fanout) {
					return false
				}
			}
			for e := range b.SrcRow {
				if !g.HasEdge(b.Srcs[b.SrcRow[e]], b.Dsts[b.EdgeDst[e]]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSampleSeededConcurrent exercises the concurrent serving pattern: many
// goroutines sampling at once, each with a private request-derived RNG. Run
// under -race this pins the fix for the shared-RNG data race; the assertion
// pins determinism — every same-seeded call must reproduce the serial result
// exactly, no matter how calls interleave.
func TestSampleSeededConcurrent(t *testing.T) {
	g := sampleGraph(t)
	seeds := []int32{5, 17, 100, 241}
	fanouts := []int{10, 5}

	want := make([][]*Block, 8)
	for s := range want {
		want[s] = Sample(g, seeds, fanouts, tensor.NewRNG(uint64(s+1)))
	}

	var wg sync.WaitGroup
	for iter := 0; iter < 16; iter++ {
		for s := range want {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				got := Sample(g, seeds, fanouts, tensor.NewRNG(uint64(s+1)))
				for l := range got {
					if !equalInt32(got[l].Srcs, want[s][l].Srcs) ||
						!equalInt32(got[l].SrcRow, want[s][l].SrcRow) ||
						!equalInt32(got[l].EdgeDst, want[s][l].EdgeDst) {
						t.Errorf("seed %d layer %d: concurrent sample differs from serial", s+1, l)
						return
					}
				}
			}(s)
		}
	}
	wg.Wait()

	// Distinct seeds must not all collapse to one sample (fanout < degree
	// somewhere in this graph, so at least two of the eight should differ).
	distinct := false
	for s := 1; s < len(want); s++ {
		if !equalInt32(want[s][0].SrcRow, want[0][0].SrcRow) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("eight different seeds produced identical samples")
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
