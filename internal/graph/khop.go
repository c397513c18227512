package graph

import "slices"

// KHopInClosure returns, for each hop h in 1..k, the set of vertices reached
// by following in-edges h steps backward from seeds, matching the BFS
// dependency retrieval of Algorithm 2 (line 3-4): hop[h-1] is V_i^{L-h} \ V_i
// style frontier including revisits across hops being deduplicated per hop
// but a vertex may appear in multiple hops (layer-specific dependencies).
//
// The returned slices contain vertex ids in ascending order.
func (g *Graph) KHopInClosure(seeds []int32, k int) [][]int32 {
	hops := make([][]int32, k)
	frontier := seeds
	for h := 0; h < k; h++ {
		mark := make(map[int32]struct{})
		for _, v := range frontier {
			for _, u := range g.InNeighbors(v) {
				mark[u] = struct{}{}
			}
		}
		hops[h] = SortedKeys(mark)
		frontier = hops[h]
	}
	return hops
}

// SortedKeys returns the keys of a vertex-keyed map in ascending order: the
// one way a vertex set leaves a map, so no map iteration order reaches a plan.
func SortedKeys[V any](m map[int32]V) []int32 {
	out := make([]int32, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
