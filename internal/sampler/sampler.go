// Package sampler implements the layered neighbor sampling used by the
// DepCache-with-sampling systems the paper compares against (DistDGL's
// default (10, 25) fanout, §5.1): for a mini-batch of seed vertices, each
// layer keeps at most fanout randomly chosen in-neighbors per vertex,
// producing a stack of bipartite blocks trained with mini-batch gradient
// descent. Sampling trades exactness for cheaper computation — the accuracy
// sacrifice Figures 14's DepCache-sampling curve exhibits.
package sampler

import (
	"fmt"

	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// Block is one sampled bipartite layer: every destination aggregates from a
// bounded sample of its in-neighbors. Destinations are a subset of sources
// (each vertex also feeds its own next-layer representation). The embedded
// graph.Block indexes Srcs (SrcRow, SelfRow) and Dsts (EdgeDst) and carries
// the full graph's GCN coefficients: a sample keeps true degrees, since the
// norm describes the graph, not the sample.
type Block struct {
	graph.Block
	// Srcs is the input frontier (global vertex ids, ascending).
	Srcs []int32
	// Dsts is the output frontier, a subset of Srcs.
	Dsts []int32
}

// Sample builds the block stack for seeds with the given per-layer fanouts.
// fanouts[len-1] applies to the seeds' direct neighbors (first hop) and
// fanouts[0] to the deepest hop, matching a DGL fanout list ordered from
// input layer to output layer. Blocks are returned input-first: blocks[0]
// consumes raw features, blocks[len-1] produces the seed representations.
//
// rng is mutated on every draw and must not be shared across goroutines: a
// training loop hands its epoch RNG in, a concurrent serving path must give
// each request its own, seeded from the request id. Two calls with
// identically seeded RNGs and equal inputs produce identical blocks.
func Sample(g *graph.Graph, seeds []int32, fanouts []int, rng *tensor.RNG) []*Block {
	L := len(fanouts)
	blocks := make([]*Block, L)
	frontier := dedupSorted(seeds)
	// Walk top-down building each block's sampled edges, then reverse.
	for l := L - 1; l >= 0; l-- {
		fanout := fanouts[l]
		b := &Block{Dsts: frontier}
		type edge struct{ src, dst int32 }
		var edges []edge
		srcSet := make(map[int32]struct{}, len(frontier)*2)
		for _, v := range frontier {
			srcSet[v] = struct{}{} // self row always present
		}
		for di, v := range frontier {
			nbrs := g.InNeighbors(v)
			picked := pick(nbrs, fanout, rng)
			for _, u := range picked {
				srcSet[u] = struct{}{}
				edges = append(edges, edge{src: u, dst: int32(di)})
			}
		}
		b.Srcs = graph.SortedKeys(srcSet)
		srcPos := make(map[int32]int32, len(b.Srcs))
		for i, u := range b.Srcs {
			srcPos[u] = int32(i)
		}
		// Group edges by destination (they already are: frontier order).
		b.Offsets = make([]int32, len(frontier)+1)
		b.SelfRow = make([]int32, len(frontier))
		b.SelfNorm = make([]float32, len(frontier))
		ei := 0
		for di, v := range frontier {
			b.SelfRow[di] = srcPos[v]
			dv := g.InDegree(v)
			b.SelfNorm[di] = graph.GCNSelfCoefficient(dv)
			fv := graph.GCNFactor(dv)
			for ei < len(edges) && edges[ei].dst == int32(di) {
				u := edges[ei].src
				b.SrcRow = append(b.SrcRow, srcPos[u])
				b.EdgeDst = append(b.EdgeDst, int32(di))
				b.EdgeNorm = append(b.EdgeNorm, graph.GCNFactor(g.InDegree(u))*fv)
				ei++
			}
			b.Offsets[di+1] = int32(len(b.SrcRow))
		}
		blocks[l] = b
		frontier = b.Srcs
	}
	return blocks
}

// Pick samples up to fanout elements of nbrs without replacement using a
// partial Fisher-Yates shuffle over a copy. When the list is already within
// the fanout it is returned as-is — callers must not mutate the result. It
// is the sampling primitive Sample applies per destination, exported for
// paths that sample over frontiers Sample cannot see (e.g. a serving
// overlay's virtual vertices).
func Pick(nbrs []int32, fanout int, rng *tensor.RNG) []int32 {
	return pick(nbrs, fanout, rng)
}

// pick samples up to fanout elements of nbrs without replacement. When the
// list is short it is returned as-is (callers must not mutate).
func pick(nbrs []int32, fanout int, rng *tensor.RNG) []int32 {
	if len(nbrs) <= fanout {
		return nbrs
	}
	// Partial Fisher-Yates over a copy.
	cp := make([]int32, len(nbrs))
	copy(cp, nbrs)
	for i := 0; i < fanout; i++ {
		j := i + rng.Intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:fanout]
}

func dedupSorted(in []int32) []int32 {
	set := make(map[int32]struct{}, len(in))
	for _, v := range in {
		set[v] = struct{}{}
	}
	return graph.SortedKeys(set)
}

// BatchIterator yields shuffled mini-batches of vertex ids each epoch.
type BatchIterator struct {
	ids   []int32
	size  int
	rng   *tensor.RNG
	order []int
	pos   int
}

// NewBatchIterator builds an iterator over ids with the given batch size.
func NewBatchIterator(ids []int32, size int, rng *tensor.RNG) *BatchIterator {
	if size <= 0 {
		panic(fmt.Sprintf("sampler: batch size %d", size))
	}
	return &BatchIterator{ids: ids, size: size, rng: rng}
}

// NumBatches returns the number of batches per epoch.
func (it *BatchIterator) NumBatches() int {
	if len(it.ids) == 0 {
		return 0
	}
	return (len(it.ids) + it.size - 1) / it.size
}

// Reset reshuffles for a new epoch.
func (it *BatchIterator) Reset() {
	it.order = it.rng.Perm(len(it.ids))
	it.pos = 0
}

// Next returns the next batch, or nil when the epoch is exhausted.
func (it *BatchIterator) Next() []int32 {
	if it.order == nil {
		it.Reset()
	}
	if it.pos >= len(it.ids) {
		return nil
	}
	end := min(it.pos+it.size, len(it.ids))
	batch := make([]int32, 0, end-it.pos)
	for _, k := range it.order[it.pos:end] {
		batch = append(batch, it.ids[k])
	}
	it.pos = end
	return batch
}
