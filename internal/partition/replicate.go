// Vertex-cut replication for the DepRep policy. Where the hybrid planner
// decides per dependency whether to cache or communicate, DepRep replicates
// every boundary vertex's multi-hop closure onto each worker that needs it
// (CoFree-GNN's communication-free vertex cut): once the replica features are
// broadcast at setup, an epoch runs without any per-layer dependency traffic.
// This file materializes those per-worker replica sets; replicas hold exact
// float32 copies of their owners' rows.
package partition

import "neutronstar/internal/graph"

// ReplicaPlan holds the per-worker vertex-cut replica closure of a fully
// replicated (DepRep) execution.
type ReplicaPlan struct {
	// Sets[i][k] lists the non-owned vertices worker i replicates at
	// representation level k (k = 0 holds feature replicas), ascending.
	// Levels run 0..L-1: nothing consumes a replica's h^(L).
	Sets [][][]int32
	// NumVertices is |V| of the underlying graph.
	NumVertices int
}

// BuildReplicas computes every worker's replica closure for levels 0..L-1.
// The closure is the fixpoint the replicated dataflow needs: level L-1 holds
// the worker's remote dependencies (non-owned in-neighbor sources of owned
// vertices), and level k additionally holds the non-owned in-neighbors of
// every level-k+1 replica — exactly the set a worker must recompute locally
// so that no layer ever waits on a peer. Dependencies appear at every level
// (each layer consumes them), which the downward self-chain provides.
func BuildReplicas(g *graph.Graph, p *Partition, levels int) *ReplicaPlan {
	rp := &ReplicaPlan{
		Sets:        make([][][]int32, p.NumParts),
		NumVertices: g.NumVertices(),
	}
	for i := 0; i < p.NumParts; i++ {
		rp.Sets[i] = make([][]int32, levels)
		if levels == 0 {
			continue
		}
		deps := make(map[int32]struct{})
		for _, v := range p.Parts[i] {
			for _, u := range g.InNeighbors(v) {
				if p.Assign[u] != int32(i) {
					deps[u] = struct{}{}
				}
			}
		}
		cur := deps
		for k := levels - 1; k >= 0; k-- {
			rp.Sets[i][k] = graph.SortedKeys(cur)
			if k == 0 {
				break
			}
			next := make(map[int32]struct{}, len(cur))
			for v := range cur {
				next[v] = struct{}{} // self chain: h^(k)_v needs h^(k-1)_v
				for _, w := range g.InNeighbors(v) {
					if p.Assign[w] != int32(i) {
						next[w] = struct{}{}
					}
				}
			}
			cur = next
		}
	}
	return rp
}

// Replicas returns the total level-0 (feature) replica count across workers.
func (rp *ReplicaPlan) Replicas() int {
	n := 0
	for _, sets := range rp.Sets {
		if len(sets) > 0 {
			n += len(sets[0])
		}
	}
	return n
}

// Factor returns the vertex replication factor: (|V| + feature replicas)/|V|.
// 1.0 means no replication (a single worker or a dependency-free cut).
func (rp *ReplicaPlan) Factor() float64 {
	if rp.NumVertices == 0 {
		return 1
	}
	return float64(rp.NumVertices+rp.Replicas()) / float64(rp.NumVertices)
}
