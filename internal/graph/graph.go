// Package graph provides the static graph storage used throughout
// NeutronStar-Go: COO ingestion into CSC (in-edges grouped by destination),
// k-hop dependency closures, degree statistics and the GCN normalisation
// coefficients. Vertex ids are dense int32 in [0, NumVertices). No CSR is
// kept: the backward pass scatters along the same CSC edge arrays.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed edge u -> v: v aggregates from u ("u is an in-neighbor
// of v"), matching the paper's vertex-dependency definition.
type Edge struct {
	Src, Dst int32
}

// Graph is an immutable directed graph in CSC form: it answers "who are v's
// in-neighbors".
type Graph struct {
	numVertices int32
	numEdges    int64

	// CSC: in-edges of vertex v are InSrc[InOff[v]:InOff[v+1]].
	inOff []int64
	inSrc []int32
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return int(g.numVertices) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return int(g.numEdges) }

// InNeighbors returns the sources of v's in-edges (shared storage; do not
// mutate).
func (g *Graph) InNeighbors(v int32) []int32 {
	return g.inSrc[g.inOff[v]:g.inOff[v+1]]
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v int32) int { return int(g.inOff[v+1] - g.inOff[v]) }

// InOffsets exposes the CSC offset array (len NumVertices+1).
func (g *Graph) InOffsets() []int64 { return g.inOff }

// InSources exposes the CSC source array: entry e is the source of the e-th
// in-edge in destination-sorted order.
func (g *Graph) InSources() []int32 { return g.inSrc }

// FromEdges builds a graph with numVertices vertices from a directed edge
// list. Duplicate edges are kept (multi-edges are legal); self-loops are
// legal. It returns an error for out-of-range endpoints.
func FromEdges(numVertices int, edges []Edge) (*Graph, error) {
	n := int32(numVertices)
	for i, e := range edges {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, n)
		}
	}
	g := &Graph{numVertices: n, numEdges: int64(len(edges))}

	// CSC build: counting sort by destination.
	g.inOff = make([]int64, n+1)
	for _, e := range edges {
		g.inOff[e.Dst+1]++
	}
	for v := int32(0); v < n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	g.inSrc = make([]int32, len(edges))
	cursor := make([]int64, n)
	for _, e := range edges {
		p := g.inOff[e.Dst] + cursor[e.Dst]
		g.inSrc[p] = e.Src
		cursor[e.Dst]++
	}
	// Sort each in-neighbor list for determinism and binary search.
	for v := int32(0); v < n; v++ {
		seg := g.inSrc[g.inOff[v]:g.inOff[v+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	return g, nil
}

// MustFromEdges is FromEdges that panics on error; for tests and generators
// whose inputs are constructed in-range.
func MustFromEdges(numVertices int, edges []Edge) *Graph {
	g, err := FromEdges(numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Edges reconstructs the edge list in CSC order (dst-major, src ascending).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for v := int32(0); v < g.numVertices; v++ {
		for _, u := range g.InNeighbors(v) {
			out = append(out, Edge{Src: u, Dst: v})
		}
	}
	return out
}

// HasEdge reports whether an edge u->v exists (binary search on CSC).
func (g *Graph) HasEdge(u, v int32) bool {
	nbrs := g.InNeighbors(v)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= u })
	return i < len(nbrs) && nbrs[i] == u
}
