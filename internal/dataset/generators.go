package dataset

import (
	"math"

	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// generateRMAT samples |V|*AvgDegree directed edges from a recursive-matrix
// distribution (Chakrabarti et al.). The Skew parameter shifts probability
// mass toward the (0,0) quadrant: higher skew → heavier-tailed degrees.
// RMAT's bit-recursive construction also gives vertex ids natural locality,
// which interacts with chunk partitioning the same way real web/social
// crawls do.
func generateRMAT(spec Spec, rng *tensor.RNG) *graph.Graph {
	n := spec.Vertices
	bits := 0
	for (1 << bits) < n {
		bits++
	}
	numEdges := int(float64(n) * spec.AvgDegree)
	skew := spec.Skew
	if skew <= 0 {
		skew = 0.45
	}
	// Quadrant probabilities: a concentrates, b/c spread, d is the sparse
	// corner. a = 0.25+skew stays < 1 for skew < 0.75.
	a := 0.25 + skew
	rem := 1 - a
	b := float64(rem * 0.4)
	c := float64(rem * 0.4)
	// d = rem * 0.2 implied.

	edges := make([]graph.Edge, 0, numEdges)
	for len(edges) < numEdges {
		src, dst := 0, 0
		for l := 0; l < bits; l++ {
			r := rng.Float64()
			switch {
			case r < a:
				// (0,0) quadrant: neither bit set.
			case r < a+b:
				dst |= 1 << l
			case r < a+b+c:
				src |= 1 << l
			default:
				src |= 1 << l
				dst |= 1 << l
			}
		}
		if src >= n || dst >= n || src == dst {
			continue
		}
		edges = append(edges, graph.Edge{Src: int32(src), Dst: int32(dst)})
	}
	return graph.MustFromEdges(n, edges)
}

// generateSBM samples a stochastic block model: vertices are assigned classes
// in contiguous-ish random order, and each edge keeps its endpoints within
// one class with probability Homophily. Degrees follow a mild power law so
// the graph still has hubs. Returns the graph and the planted labels.
func generateSBM(spec Spec, rng *tensor.RNG) (*graph.Graph, []int32) {
	n := spec.Vertices
	k := spec.NumClasses
	labels := make([]int32, n)
	for v := range labels {
		labels[v] = int32(rng.Intn(k))
	}
	// Bucket vertices by class for fast intra-class endpoint sampling.
	byClass := make([][]int32, k)
	for v, c := range labels {
		byClass[c] = append(byClass[c], int32(v))
	}
	// Guarantee no empty class (tiny n edge case) by reassigning.
	for c := 0; c < k; c++ {
		if len(byClass[c]) == 0 {
			v := int32(rng.Intn(n))
			old := labels[v]
			// Remove v from its old bucket.
			ob := byClass[old]
			for i, x := range ob {
				if x == v {
					byClass[old] = append(ob[:i], ob[i+1:]...)
					break
				}
			}
			labels[v] = int32(c)
			byClass[c] = append(byClass[c], v)
		}
	}

	homophily := spec.Homophily
	if homophily <= 0 {
		homophily = 0.8
	}
	numEdges := int(float64(n) * spec.AvgDegree)
	edges := make([]graph.Edge, 0, numEdges)
	// Power-law-ish destination choice: square a uniform to bias toward low
	// indices within the shuffled id space.
	pick := func(bucket []int32) int32 {
		u := rng.Float64()
		idx := int(math.Pow(u, 1.6) * float64(len(bucket)))
		if idx >= len(bucket) {
			idx = len(bucket) - 1
		}
		return bucket[idx]
	}
	for len(edges) < numEdges {
		c := rng.Intn(k)
		dst := pick(byClass[c])
		var src int32
		if rng.Float64() < homophily {
			src = pick(byClass[c])
		} else {
			src = int32(rng.Intn(n))
		}
		if src == dst {
			continue
		}
		edges = append(edges, graph.Edge{Src: src, Dst: dst})
	}
	return graph.MustFromEdges(n, edges), labels
}

// generateLocality samples |V|*AvgDegree edges where the destination is
// uniform and the source sits a power-law-distributed id-distance away, so
// contiguous id ranges (chunk partitions) capture most edges. A small
// uniform tail keeps the graph connected across chunks.
func generateLocality(spec Spec, rng *tensor.RNG) *graph.Graph {
	n := spec.Vertices
	scale := spec.LocalityScale
	if scale <= 0 {
		scale = 0.02
	}
	maxOff := float64(n) * scale
	numEdges := int(float64(n) * spec.AvgDegree)
	edges := make([]graph.Edge, 0, numEdges)
	for len(edges) < numEdges {
		dst := rng.Intn(n)
		var src int
		if rng.Float64() < 0.9 {
			// Power-law distance: offset = maxOff * u^3 keeps the mass close.
			u := rng.Float64()
			off := int(maxOff*u*u*u) + 1
			if rng.Uint64()&1 == 0 {
				off = -off
			}
			src = dst + off
			if src < 0 || src >= n {
				continue
			}
		} else {
			src = rng.Intn(n)
		}
		if src == dst {
			continue
		}
		edges = append(edges, graph.Edge{Src: int32(src), Dst: int32(dst)})
	}
	return graph.MustFromEdges(n, edges)
}
