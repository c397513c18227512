package graph

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarises a graph's shape; it backs the Table 2 dataset listing and
// the partition-quality reporting.
type Stats struct {
	NumVertices int
	NumEdges    int
	AvgInDegree float64
	MaxInDegree int
	// DegreeP50/P90/P99 are in-degree percentiles; skew indicators that
	// predict how expensive DepCache replication will be.
	DegreeP50, DegreeP90, DegreeP99 int
	// Isolated counts vertices with neither in- nor out-edges.
	Isolated int
}

// ComputeStats scans the graph once and returns its statistics.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	s := Stats{NumVertices: n, NumEdges: g.NumEdges()}
	if n == 0 {
		return s
	}
	hasOut := make([]bool, n)
	for _, u := range g.InSources() {
		hasOut[u] = true
	}
	degrees := make([]int, n)
	for v := 0; v < n; v++ {
		d := g.InDegree(int32(v))
		degrees[v] = d
		if d > s.MaxInDegree {
			s.MaxInDegree = d
		}
		if d == 0 && !hasOut[v] {
			s.Isolated++
		}
	}
	s.AvgInDegree = float64(g.NumEdges()) / float64(n)
	sort.Ints(degrees)
	s.DegreeP50 = degrees[n/2]
	s.DegreeP90 = degrees[min(n-1, n*9/10)]
	s.DegreeP99 = degrees[min(n-1, n*99/100)]
	return s
}

// String formats the stats as a single table-style row.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d avgdeg=%.2f maxdeg=%d p50/p90/p99=%d/%d/%d isolated=%d",
		s.NumVertices, s.NumEdges, s.AvgInDegree, s.MaxInDegree,
		s.DegreeP50, s.DegreeP90, s.DegreeP99, s.Isolated)
}

// GCNFactor returns float32(1/√(d+1)), the symmetric GCN normalisation's
// factor for a vertex of in-degree d (+1 for Kipf & Welling's implicit
// self-loop). Edge u->v's coefficient is the float32 product of v's and u's.
func GCNFactor(d int) float32 {
	return float32(1 / math.Sqrt(float64(d+1)))
}

// GCNSelfCoefficient returns the self-loop coefficient 1/(d+1) of a vertex of
// in-degree d, rounded once from the float64 square of 1/√(d+1).
func GCNSelfCoefficient(d int) float32 {
	inv := 1 / math.Sqrt(float64(d+1))
	return float32(inv * inv)
}

// GCNNormCoefficients returns, in CSC edge order, the symmetric GCN
// normalisation coefficient of each edge u->v (the float32 product of the
// two endpoints' GCNFactor), and for each vertex its GCNSelfCoefficient. It
// is the one table every full-graph consumer reads: edge k of v's in-list is
// edgeNorm[InOffsets()[v]+k].
func GCNNormCoefficients(g *Graph) (edgeNorm []float32, selfNorm []float32) {
	n := g.NumVertices()
	edgeNorm = make([]float32, g.NumEdges())
	selfNorm = make([]float32, n)
	factor := make([]float32, n)
	for v := 0; v < n; v++ {
		d := g.InDegree(int32(v))
		factor[v] = GCNFactor(d)
		selfNorm[v] = GCNSelfCoefficient(d)
	}
	off := g.InOffsets()
	src := g.InSources()
	for v := 0; v < n; v++ {
		for e := off[v]; e < off[v+1]; e++ {
			edgeNorm[e] = factor[v] * factor[src[e]]
		}
	}
	return edgeNorm, selfNorm
}
