package main

import (
	"bytes"
	"testing"

	"neutronstar/internal/graph"
)

// testGraph is the quick-size RMAT graph of the serving workloads.
func testGraph(t *testing.T, seed uint64, vertices int) *graph.Graph {
	t.Helper()
	w, err := findWorkload("serve-mix")
	if err != nil {
		t.Fatal(err)
	}
	sz := quickSizes
	sz.rmatVertices = vertices
	return loadDataset(w, &runConfig{seed: seed, sz: sz}, nil).Graph
}

func TestRequestStreamIsDeterministic(t *testing.T) {
	const numVertices = 5000
	g := testGraph(t, 11, numVertices)
	hot := hotSet(11, g)
	a := newRequestStream(12, hot, numVertices)
	b := newRequestStream(12, hotSet(11, g), numVertices)
	other := newRequestStream(13, hot, numVertices)
	differs := false
	for i := 0; i < 300; i++ {
		va, hotA := a.next()
		vb, hotB := b.next()
		if hotA != hotB || !bytes.Equal(predictBody(va), predictBody(vb)) {
			t.Fatalf("request %d differs between two streams of the same seed", i)
		}
		vo, _ := other.next()
		if !bytes.Equal(predictBody(va), predictBody(vo)) {
			differs = true
		}
	}
	if !differs {
		t.Error("streams of different seeds produced the same 300 requests")
	}
	if got := string(predictBody([]int32{3, 14, 15})); got != `{"vertices":[3,14,15]}` {
		t.Errorf("predictBody = %s", got)
	}
}

func TestRequestMixProportionsAndClasses(t *testing.T) {
	const numVertices, requests = 5000, 6000
	g := testGraph(t, 7, numVertices)
	hot := hotSet(7, g)
	if len(hot) != hotVertices {
		t.Fatalf("hot set has %d vertices, want %d", len(hot), hotVertices)
	}
	inHot := map[int32]bool{}
	maxDeg := 0
	for _, v := range hot {
		if inHot[v] {
			t.Fatalf("hot set repeats vertex %d", v)
		}
		inHot[v] = true
		maxDeg = max(maxDeg, g.InDegree(v))
	}
	if maxDeg > hotMaxDegree {
		t.Errorf("hot set holds a vertex of in-degree %d, the cache budget allows %d", maxDeg, hotMaxDegree)
	}
	s := newRequestStream(7, hot, numVertices)
	hotCount := 0
	for i := 0; i < requests; i++ {
		verts, isHot := s.next()
		if len(verts) != requestVertices {
			t.Fatalf("request %d has %d vertices, want %d", i, len(verts), requestVertices)
		}
		seen := map[int32]bool{}
		for _, v := range verts {
			if v < 0 || v >= numVertices {
				t.Fatalf("request %d names vertex %d outside the graph", i, v)
			}
			if seen[v] {
				t.Fatalf("request %d repeats vertex %d", i, v)
			}
			seen[v] = true
			if isHot && !inHot[v] {
				t.Fatalf("hot request %d names vertex %d outside the hot set", i, v)
			}
		}
		if isHot {
			hotCount++
		}
	}
	if share := float64(hotCount) / requests; share < hotShare-0.03 || share > hotShare+0.03 {
		t.Errorf("hot share over %d requests is %.3f, want %.2f ± 0.03", requests, share, hotShare)
	}
}
