package graph

// Block is one destination block of one layer, the shape every layer pass
// runs over (the paper's §4.1 pipeline applied to a set of destination
// vertices): edges are grouped by destination in CSC order, each edge reads
// one row of the block's source universe, and each destination reads its own
// row of the self universe. The engines' owned, replicated and
// tensor-parallel blocks, a served request's blocks, a sampled mini-batch's
// blocks and the whole graph (FullBlock) are all Blocks.
type Block struct {
	// SrcRow[e] is the source-universe row edge e reads.
	SrcRow []int32
	// EdgeDst[e] is edge e's destination, 0..NumDst()-1.
	EdgeDst []int32
	// Offsets delimits each destination's edge group (len NumDst()+1). The
	// zero Block, with nil Offsets, has no destination.
	Offsets []int32
	// SelfRow[d] is destination d's row in the self universe. Nil means the
	// self rows are exactly the destinations' rows, in order.
	SelfRow []int32
	// EdgeNorm[e] is edge e's GCN normalisation coefficient and SelfNorm[d]
	// destination d's self-loop coefficient: the entries of
	// GCNNormCoefficients' table.
	EdgeNorm, SelfNorm []float32
}

// NumDst returns the number of destination vertices.
func (b *Block) NumDst() int { return max(len(b.Offsets)-1, 0) }

// FullBlock returns g as one block: every vertex a destination, in id order,
// reading its in-neighbors' rows by vertex id, with GCNNormCoefficients'
// table. SrcRow shares g's CSC source array: do not mutate it.
func FullBlock(g *Graph) *Block {
	n := g.NumVertices()
	b := &Block{
		SrcRow:  g.InSources(),
		EdgeDst: make([]int32, g.NumEdges()),
		Offsets: make([]int32, n+1),
	}
	off := g.InOffsets()
	for v := 0; v < n; v++ {
		for e := off[v]; e < off[v+1]; e++ {
			b.EdgeDst[e] = int32(v)
		}
		b.Offsets[v+1] = int32(off[v+1])
	}
	b.EdgeNorm, b.SelfNorm = GCNNormCoefficients(g)
	return b
}
