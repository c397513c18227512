package engine

import (
	"neutronstar/internal/costmodel"
	"neutronstar/internal/graph"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// Tensor-parallel (DepTP) execution structures. A TP layer inverts the data
// placement of the other policies: every worker holds the full graph
// structure, but features, aggregations and gradients are sharded along the
// feature dimension — worker j owns an F/N-wide column slice. Per-vertex
// dependency traffic disappears; two slice-exchange collectives (a forward
// re-gather and its backward re-scatter adjoint) move the sharded tensors
// between the column layout and the row layout instead, with volume
// |V|·F/N-shaped and independent of the degree distribution. Only a
// slice-separable model's layers run this way (Planner.SliceTP); any other
// model's TP layer is a master–mirror layer over every peer's whole owned
// block (buildWorkerPlan).

// tpShared is the cluster-global tensor-parallel geometry, built once and
// shared read-only by every worker's plan. All workers agree on the
// owner-block row order: worker 0's owned vertices first (in partition
// order), then worker 1's, and so on — so a row range identifies an owner
// without any per-vertex index exchange.
type tpShared struct {
	// blockStart[j]..blockStart[j+1] is worker j's owned row range in
	// owner-block order (length m+1).
	blockStart []int
	// globalRow maps a global vertex id to its owner-block row.
	globalRow []int32
	// all is the full-graph destination block over owner-block rows:
	// buildBlock's CSC convention, so per-vertex sums reduce in the same float
	// order as the other policies.
	all blockPlan
}

// resolve is buildBlock's row resolver over the owner-block row universe.
func (sh *tpShared) resolve(v int32) (int32, error) { return sh.globalRow[v], nil }

// buildTPShared derives the cluster-global geometry.
func buildTPShared(g *graph.Graph, part *partition.Partition, norm gcnNorm) (*tpShared, error) {
	m := part.NumParts
	sh := &tpShared{blockStart: make([]int, m+1), globalRow: make([]int32, g.NumVertices())}
	order := make([]int32, 0, g.NumVertices())
	for j := 0; j < m; j++ {
		sh.blockStart[j] = len(order)
		for _, v := range part.Parts[j] {
			sh.globalRow[v] = int32(len(order))
			order = append(order, v)
		}
	}
	sh.blockStart[m] = len(order)
	var err error
	sh.all, err = buildBlock(g, order, sh.resolve, sh.resolve, norm)
	return sh, err
}

// buildTPLayer derives worker `worker`'s slice dataflow for TP layer l.
func buildTPLayer(sh *tpShared, dims []int, l, worker int) *tpSlice {
	m := len(sh.blockStart) - 1
	f := &tpSlice{shared: sh, x: TPSliceExchange{BlockStart: sh.blockStart, ColStart: make([]int, m+1)}}
	for j := 0; j <= m; j++ {
		f.x.ColStart[j], _ = costmodel.TPColRange(dims[l-1], m, j)
	}
	blo, bhi := f.x.rows(worker)
	f.selfNormOwned = sh.all.selfNorm[blo:bhi]
	return f
}

// TPSliceExchange models the two DepTP collectives over plain tensors,
// independent of any engine instance. slices[j] is worker j's column slice
// of a |V|-row matrix in owner-block order (ColStart[j+1]-ColStart[j]
// columns); ReGather assembles one worker's full-width owned block from
// them, and ReScatter routes a gradient block back. The pair being exact
// adjoints — ⟨ReGather(A), B⟩ == Σ_j ⟨A_j, ReScatter(B)_j⟩ — is what makes
// the TP backward pass compute the same gradients as a single machine; the
// gradcheck sweep tests exactly that identity.
type TPSliceExchange struct {
	// BlockStart[w]..BlockStart[w+1] is worker w's owned row range.
	BlockStart []int
	// ColStart[j]..ColStart[j+1] is worker j's column slice.
	ColStart []int
}

// NumWorkers returns the cluster size implied by the row blocks.
func (x TPSliceExchange) NumWorkers() int { return len(x.BlockStart) - 1 }

// rows returns worker w's owned row range [lo, hi) in owner-block order.
func (x TPSliceExchange) rows(w int) (lo, hi int) { return x.BlockStart[w], x.BlockStart[w+1] }

// cols returns worker j's column slice [lo, hi).
func (x TPSliceExchange) cols(j int) (lo, hi int) { return x.ColStart[j], x.ColStart[j+1] }

// window addresses the sub-matrix of t whose top-left element is (row, col).
type window struct {
	t        *tensor.Tensor
	row, col int
}

func at(t *tensor.Tensor, row, col int) window { return window{t, row, col} }

// copyWindow copies src's rows×cols window over dst's. Every slice-exchange
// data movement — cutting a column slice out of a row block, placing one into
// it, placing a row block into the owner-block universe — is this kernel with
// different corners.
func copyWindow(dst, src window, rows, cols int) {
	for r := 0; r < rows; r++ {
		copy(dst.t.Row(dst.row + r)[dst.col:dst.col+cols], src.t.Row(src.row + r)[src.col:])
	}
}

// addWindow accumulates (+=) src's rows×cols window into dst's: copyWindow's
// counterpart wherever gradients from several sources meet.
func addWindow(dst, src window, rows, cols int) {
	for r := 0; r < rows; r++ {
		tensor.AddTo(dst.t.Row(dst.row + r)[dst.col:dst.col+cols], src.t.Row(src.row + r)[src.col:src.col+cols])
	}
}

// ReGather assembles worker w's full-width owned block from every worker's
// column slice: out[r][c] = slices[j][BlockStart[w]+r][c-ColStart[j]] for
// the j whose slice covers column c.
func (x TPSliceExchange) ReGather(slices []*tensor.Tensor, w int) *tensor.Tensor {
	blo, bhi := x.rows(w)
	out := tensor.New(bhi-blo, x.ColStart[len(x.ColStart)-1])
	for j, s := range slices {
		lo, hi := x.cols(j)
		copyWindow(at(out, 0, lo), at(s, blo, 0), bhi-blo, hi-lo)
	}
	return out
}

// ReScatter is ReGather's adjoint: it routes worker w's full-width gradient
// block back into the per-worker column slices, accumulating (+=) so
// scatters from different owners compose the way the backward pass does.
func (x TPSliceExchange) ReScatter(grad *tensor.Tensor, w int, slices []*tensor.Tensor) {
	blo, bhi := x.rows(w)
	for j, s := range slices {
		lo, hi := x.cols(j)
		addWindow(at(s, blo, 0), at(grad, 0, lo), bhi-blo, hi-lo)
	}
}
