package partition

import (
	"math"

	"neutronstar/internal/graph"
)

// fennelPartition implements Fennel streaming partitioning (Tsourakakis et
// al., WSDM'14). Vertices arrive in id order; each is placed on the part
// maximising |N(v) ∩ S_i| − α·γ·|S_i|^{γ−1}, i.e. neighbor affinity minus a
// superlinear size penalty, under a hard capacity limit.
func fennelPartition(g *graph.Graph, numParts int) *Partition {
	n := g.NumVertices()
	m := g.NumEdges()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	if numParts == 1 {
		for i := range assign {
			assign[i] = 0
		}
		return fromAssign(assign, 1)
	}

	const gamma = 1.5
	// α from the paper: m * k^(γ-1) / n^γ.
	alpha := float64(m) * math.Pow(float64(numParts), gamma-1) / math.Pow(float64(n), gamma)
	if alpha == 0 {
		alpha = 1
	}
	capLimit := int(1.1*float64(n)/float64(numParts)) + 1
	sizes := make([]int, numParts)
	affinity := make([]int, numParts)
	out := make([][]int32, n) // out-neighbor lists, inverted from the CSC once
	for v := int32(0); v < int32(n); v++ {
		for _, u := range g.InNeighbors(v) {
			out[u] = append(out[u], v)
		}
	}

	for v := int32(0); v < int32(n); v++ {
		for i := range affinity {
			affinity[i] = 0
		}
		// Count already-placed neighbors (undirected view) per part.
		for _, u := range g.InNeighbors(v) {
			if assign[u] >= 0 {
				affinity[assign[u]]++
			}
		}
		for _, u := range out[v] {
			if assign[u] >= 0 {
				affinity[assign[u]]++
			}
		}
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < numParts; i++ {
			if sizes[i] >= capLimit {
				continue
			}
			score := float64(affinity[i]) - float64(alpha*gamma*math.Pow(float64(sizes[i]), gamma-1))
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 { // every part at capacity (cannot happen with 1.1 slack, but stay safe)
			for i := 0; i < numParts; i++ {
				if sizes[i] < sizes[maxIdx(sizes)] || best < 0 {
					best = i
				}
			}
		}
		assign[v] = int32(best)
		sizes[best]++
	}
	return fromAssign(assign, numParts)
}

func maxIdx(s []int) int {
	b := 0
	for i, v := range s {
		if v > s[b] {
			b = i
		}
	}
	return b
}
