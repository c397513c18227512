// Package partition assigns graph vertices to workers. NeutronStar decouples
// graph partitioning from dependency partitioning (§3, "Graph Partitioning");
// this package provides the three algorithms the paper evaluates against in
// Figure 15: chunk-based (Gemini-style contiguous ranges balanced by edges),
// a METIS-like multilevel partitioner (heavy-edge coarsening, multi-start
// greedy growth, refinement at every level), and Fennel streaming
// partitioning. All three return the same Partition structure, so
// engines are oblivious to which algorithm produced the assignment.
package partition

import (
	"fmt"

	"neutronstar/internal/graph"
)

// Algorithm names a partitioning strategy.
type Algorithm string

const (
	// Chunk is contiguous-range partitioning balanced on α|V|+|E| (Gemini).
	Chunk Algorithm = "chunk"
	// Metis is METIS-like multilevel partitioning: coarsen, partition the
	// coarsest graph, refine while projecting back (multilevel.go).
	Metis Algorithm = "metis"
	// Fennel is streaming partitioning with the Fennel objective.
	Fennel Algorithm = "fennel"
)

// Partition maps every vertex to exactly one of NumParts workers.
type Partition struct {
	NumParts int
	// Assign[v] is the worker that owns vertex v.
	Assign []int32
	// Parts[i] lists the vertices owned by worker i in ascending order.
	Parts [][]int32
}

// Owner returns the worker owning vertex v.
func (p *Partition) Owner(v int32) int32 { return p.Assign[v] }

// Validate checks the structural invariants: every vertex appears in exactly
// one part, parts agree with Assign, and part lists are ascending.
func (p *Partition) Validate(numVertices int) error {
	if len(p.Assign) != numVertices {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(p.Assign), numVertices)
	}
	seen := make([]bool, numVertices)
	total := 0
	for i, part := range p.Parts {
		prev := int32(-1)
		for _, v := range part {
			if v <= prev {
				return fmt.Errorf("partition: part %d not strictly ascending at %d", i, v)
			}
			prev = v
			if int(v) >= numVertices {
				return fmt.Errorf("partition: part %d contains out-of-range vertex %d", i, v)
			}
			if seen[v] {
				return fmt.Errorf("partition: vertex %d in multiple parts", v)
			}
			seen[v] = true
			if p.Assign[v] != int32(i) {
				return fmt.Errorf("partition: vertex %d in part %d but assigned %d", v, i, p.Assign[v])
			}
			total++
		}
	}
	if total != numVertices {
		return fmt.Errorf("partition: %d of %d vertices assigned", total, numVertices)
	}
	return nil
}

// fromAssign builds the Parts lists from an Assign array.
func fromAssign(assign []int32, numParts int) *Partition {
	p := &Partition{NumParts: numParts, Assign: assign, Parts: make([][]int32, numParts)}
	counts := make([]int, numParts)
	for _, w := range assign {
		counts[w]++
	}
	for i := range p.Parts {
		p.Parts[i] = make([]int32, 0, counts[i])
	}
	for v, w := range assign {
		p.Parts[w] = append(p.Parts[w], int32(v))
	}
	return p
}

// New partitions g into numParts using the named algorithm.
func New(algo Algorithm, g *graph.Graph, numParts int) (*Partition, error) {
	if numParts <= 0 {
		return nil, fmt.Errorf("partition: numParts = %d", numParts)
	}
	switch algo {
	case Chunk:
		return chunkPartition(g, numParts), nil
	case Metis:
		return multilevelPartition(g, numParts), nil
	case Fennel:
		return fennelPartition(g, numParts), nil
	default:
		return nil, fmt.Errorf("partition: unknown algorithm %q", algo)
	}
}

// chunkPartition splits vertices into contiguous ranges so that each range
// carries roughly the same α|V_i| + |E_i| load, the balancing objective of
// Gemini that NeutronStar adopts as its default.
func chunkPartition(g *graph.Graph, numParts int) *Partition {
	const alpha = 8 // weight of a vertex relative to an edge, as in Gemini
	n := g.NumVertices()
	assign := make([]int32, n)
	totalLoad := int64(n)*alpha + int64(g.NumEdges())
	perPart := (totalLoad + int64(numParts) - 1) / int64(numParts)
	part := int32(0)
	var acc int64
	for v := 0; v < n; v++ {
		assign[v] = part
		acc += alpha + int64(g.InDegree(int32(v)))
		if acc >= perPart && int(part) < numParts-1 {
			part++
			acc = 0
		}
	}
	return fromAssign(assign, numParts)
}

// Quality summarises how a partition interacts with a graph.
type Quality struct {
	// EdgeCut is the number of edges whose endpoints live on different
	// workers — exactly the dependencies the engines must cache or
	// communicate.
	EdgeCut int
	// CutRatio is EdgeCut / |E|.
	CutRatio float64
	// MaxLoad / MinLoad are the largest and smallest α|V_i|+|E_i| loads.
	MaxLoad, MinLoad int64
	// Imbalance is MaxLoad / mean load.
	Imbalance float64
}

// Evaluate computes partition quality metrics against g.
func Evaluate(p *Partition, g *graph.Graph) Quality {
	const alpha = 8
	var q Quality
	loads := make([]int64, p.NumParts)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		loads[p.Assign[v]] += alpha + int64(g.InDegree(v))
		for _, u := range g.InNeighbors(v) {
			if p.Assign[u] != p.Assign[v] {
				q.EdgeCut++
			}
		}
	}
	if g.NumEdges() > 0 {
		q.CutRatio = float64(q.EdgeCut) / float64(g.NumEdges())
	}
	q.MinLoad = loads[0]
	var total int64
	for _, l := range loads {
		total += l
		if l > q.MaxLoad {
			q.MaxLoad = l
		}
		if l < q.MinLoad {
			q.MinLoad = l
		}
	}
	if total > 0 {
		q.Imbalance = float64(q.MaxLoad) * float64(p.NumParts) / float64(total)
	}
	return q
}
