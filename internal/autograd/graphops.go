package autograd

import (
	"fmt"
	"math"

	"neutronstar/internal/tensor"
)

// The operations in this file are the differentiable halves of NeutronStar's
// decoupled graph operations (§4.1): ScatterToEdge is a Gather over source or
// destination indices, GatherByDst is a ScatterAddRows keyed by destination,
// and GAT's per-destination attention normalisation is SegmentSoftmax.
// Their backward rules are the paper's ScatterBackToEdge / GatherBySrc duals.
// The decoupled ops are the programming model; sum-type layers execute the
// three of them as one Aggregate, which never builds the per-edge tensors,
// and GAT computes its attention weights with one EdgeSoftmax.

// Gather selects rows of x by idx: out[i] = x[idx[i]]. The same source row may
// appear many times (a vertex feeds all its out-edges); the backward pass
// scatter-adds edge gradients back to the vertex rows.
func (t *Tape) Gather(x *Variable, idx []int32) *Variable {
	cols := x.Value.Cols()
	out := t.allocUnzeroed(len(idx), cols)
	for i, src := range idx {
		copy(out.Row(i), x.Value.Row(int(src)))
	}
	return t.record(out, "gather", func(grad *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		g := t.alloc(x.Value.Rows(), x.Value.Cols())
		tensor.ScaledScatterAddEdgewise(g, idx, grad, nil, nil, len(idx))
		x.adopt(g)
	}, x)
}

// Aggregate is the fused execution of ScatterToEdge · EdgeForward ·
// GatherByDst for sum-type aggregators: out[dst[e]] += coeff[e] · x[src[e]]
// over numDst output rows, reading vertex rows through the index and writing
// destination rows directly, so no per-edge tensor exists in either
// direction. src == nil means edge e reads row e of x; coeff == nil means
// every coefficient is 1. coeff is captured by reference and treated as a
// constant.
//
// Edges are applied in ascending e and each product is rounded to float32
// before it is added (tensor.ScaledScatterAdd's contract: no FMA
// contraction), so the values are bit-identical to
// ScatterAddRows(MulColVec(Gather(x, src), coeff), dst).
// The backward pass is the same loop with the two indices swapped,
// x.Grad[src[e]] += coeff[e] · dOut[dst[e]], accumulated in place by one
// tensor.ScaledScatterAddEdgewise call over the whole edge list.
func (t *Tape) Aggregate(x *Variable, src []int32, coeff []float32, dst []int32, numDst int) *Variable {
	return t.aggregate(x, src, coeff, nil, dst, numDst)
}

// AggregateWeighted is Aggregate with a differentiable Ex1 coefficient
// column (GAT's attention α): values bit-identical to
// ScatterAddRows(BroadcastColMul(Gather(x, src), alpha), dst). Besides x's
// gradient, backward adds the per-edge dot dOut[dst[e]] · x[src[e]] to
// alpha.Grad[e]. It runs in two passes over the edges: every dot first,
// each summed in ascending column order as tensor.Dot sums it, then the
// x.Grad updates in ascending e — the bits of a per-edge Dot loop followed by
// the Axpy loop.
func (t *Tape) AggregateWeighted(x *Variable, src []int32, alpha *Variable, dst []int32, numDst int) *Variable {
	if alpha.Value.Cols() != 1 {
		panic("autograd: AggregateWeighted wants an Ex1 coefficient column")
	}
	return t.aggregate(x, src, alpha.Value.Data(), alpha, dst, numDst)
}

// aggregate is the one kernel behind Aggregate, AggregateWeighted and
// ScatterAddRows; alpha is the variable coeff belongs to, or nil.
func (t *Tape) aggregate(x *Variable, src []int32, coeff []float32, alpha *Variable,
	dst []int32, numDst int) *Variable {

	// A nil src is the identity only over exactly one row per edge; an
	// edgeless block's nil index over a non-empty x is just zero edges.
	if identity := src == nil && x.Value.Rows() == len(dst); !identity && len(src) != len(dst) {
		panic(fmt.Sprintf("autograd: aggregate %d sources over %d rows for %d edges",
			len(src), x.Value.Rows(), len(dst)))
	}
	if coeff != nil && len(coeff) != len(dst) {
		panic(fmt.Sprintf("autograd: aggregate %d coefficients for %d edges", len(coeff), len(dst)))
	}
	out := t.alloc(numDst, x.Value.Cols())
	tensor.ScaledScatterAdd(out, dst, x.Value, src, coeff, len(dst))
	return t.record(out, "aggregate", func(grad *tensor.Tensor) {
		var gx *tensor.Tensor
		if x.requiresGrad {
			gx = x.gradBuf()
		}
		if alpha != nil && alpha.requiresGrad {
			weightedBackward(alpha.gradBuf().Data(), gx, x.Value, src, grad, dst, coeff)
		} else if gx != nil {
			tensor.ScaledScatterAddEdgewise(gx, src, grad, dst, coeff, len(dst))
		}
	}, x, alpha)
}

// weightedBackward is AggregateWeighted's backward pass in two sweeps over
// the edges: ga[e] += dOut[dst[e]] · x[src[e]] for every e, then, when gx is
// not nil, gx[src[e]] += coeff[e] · dOut[dst[e]] in ascending e, one
// tensor.ScaledScatterAddEdgewise call. ga and gx share no storage with x or
// dOut, so doing all the dots first moves no bit. The edges of one
// destination share its dOut row, so up to 64 of them are one
// tensor.DotRows call, one edge to a dot summed from +0 in ascending k:
// tensor.Dot's bits.
func weightedBackward(ga []float32, gx, x *tensor.Tensor, src []int32, dOut *tensor.Tensor, dst []int32, coeff []float32) {
	var dots [64]float32 // up to 64 edges to a DotRows call, on the stack
	xs, cols, n := x.Data(), x.Cols(), len(dst)
	for e := 0; e < n; {
		d := dst[e]
		g := dOut.Row(int(d))
		end := e + 1
		for end < n && end-e < len(dots) && dst[end] == d {
			end++
		}
		m := end - e
		if src == nil {
			tensor.DotRows(dots[:m], g, xs[e*cols:], nil)
		} else {
			tensor.DotRows(dots[:m], g, xs, src[e:end])
		}
		for i, s := range dots[:m] {
			ga[e+i] += s
		}
		e = end
	}
	if gx != nil {
		tensor.ScaledScatterAddEdgewise(gx, src, dOut, dst, coeff, n)
	}
}

// rowOf is the row edge e reads through idx: idx[e], or e itself when idx is
// the nil identity index.
func rowOf(idx []int32, e int) int {
	if idx == nil {
		return e
	}
	return int(idx[e])
}

// ScatterAddRows sums rows of edges into numRows output rows keyed by idx:
// out[idx[e]] += edges[e]. This is GatherByDst with the sum aggregator over
// rows that already exist per edge; the backward pass gathers,
// dEdges[e] += dOut[idx[e]].
func (t *Tape) ScatterAddRows(edges *Variable, idx []int32, numRows int) *Variable {
	return t.Aggregate(edges, nil, nil, idx, numRows)
}

// ScatterMaxRows takes an element-wise max of edge rows into numRows output
// rows keyed by idx. Rows that receive no edge stay zero. The backward pass
// routes each output element's gradient to the (first) edge that attained the
// max, matching the subgradient convention of max-pooling aggregators.
func (t *Tape) ScatterMaxRows(edges *Variable, idx []int32, numRows int) *Variable {
	cols := edges.Value.Cols()
	out := t.alloc(numRows, cols)
	argmax := make([]int32, numRows*cols)
	for i := range argmax {
		argmax[i] = -1
	}
	neg := float32(math.Inf(-1))
	seen := make([]bool, numRows)
	for e, d := range idx {
		row := out.Row(int(d))
		if !seen[d] {
			for j := range row {
				row[j] = neg
			}
			seen[d] = true
		}
		src := edges.Value.Row(e)
		base := int(d) * cols
		for j, v := range src {
			if v > row[j] {
				row[j] = v
				argmax[base+j] = int32(e)
			}
		}
	}
	// Rows never written stay zero: vertices with no in-edges aggregate to
	// zero rather than -inf, because -inf is only seeded on first touch.
	return t.record(out, "scatter_max", func(grad *tensor.Tensor) {
		if !edges.requiresGrad {
			return
		}
		g := t.alloc(edges.Value.Rows(), cols)
		for i, e := range argmax {
			if e >= 0 {
				g.Data()[int(e)*cols+i%cols] += grad.Data()[i]
			}
		}
		edges.adopt(g)
	}, edges)
}

// SegmentSoftmax normalises the Ex1 score column within contiguous segments.
// offsets has numSegments+1 entries; segment s spans rows
// [offsets[s], offsets[s+1]). Scores must therefore be ordered by segment
// (for GAT: edges sorted by destination, i.e. CSC order), and the segments
// must tile the column: offsets start at 0, never decrease and end at its
// row count (it panics naming the first offset that does not).
func (t *Tape) SegmentSoftmax(scores *Variable, offsets []int32) *Variable {
	if scores.Value.Cols() != 1 {
		panic("autograd: SegmentSoftmax wants an Ex1 score column")
	}
	e := segmentEnd("SegmentSoftmax", offsets)
	if e != scores.Value.Rows() {
		panic(fmt.Sprintf("autograd: SegmentSoftmax offsets end %d != %d rows", e, scores.Value.Rows()))
	}
	out := t.allocUnzeroed(e, 1)
	p := out.Data()
	tensor.SoftmaxSegments(p, scores.Value.Data(), offsets)
	return t.record(out, "segment_softmax", func(grad *tensor.Tensor) {
		if !scores.requiresGrad {
			return
		}
		g := t.allocUnzeroed(e, 1)
		gd, gs := grad.Data(), g.Data()
		for s := 0; s+1 < len(offsets); s++ {
			lo, hi := int(offsets[s]), int(offsets[s+1])
			dot := segmentDot(p[lo:hi], gd[lo:hi])
			for i := lo; i < hi; i++ {
				gs[i] = p[i] * (gd[i] - dot)
			}
		}
		scores.adopt(g)
	}, scores)
}

// EdgeSoftmax is GAT's edge stage up to the attention weights, as one op:
// α[e] = softmax over segment s of LeakyReLU(src[srcRow[e]] + dst[s]), for
// every edge e of segment s = [offsets[s], offsets[s+1]) — in CSC order, the
// edges of destination s. src and dst are score columns (one row per source
// row, one per segment); a nil srcRow means edge e reads row e of src. α is
// the only per-edge tensor: the scores are written into it and normalised
// in place by tensor.SoftmaxSegments, SegmentSoftmax's body, so values are
// bit-identical to
// SegmentSoftmax(LeakyReLU(Add(Gather(src, srcRow), Gather(dst, edgeDst)), slope), offsets).
//
// Backward recomputes each pre-activation score instead of keeping it, runs
// the softmax dual and the leaky mask per edge and adds the result straight
// into src.Grad[srcRow[e]] and dst.Grad[s] in ascending e: the sums, in the
// order, that the two Gather backwards produce, so both gradients carry the
// unfused chain's bits too.
func (t *Tape) EdgeSoftmax(src *Variable, srcRow []int32, dst *Variable, offsets []int32, slope float32) *Variable {
	if src.Value.Cols() != 1 || dst.Value.Cols() != 1 {
		panic("autograd: EdgeSoftmax wants Nx1 score columns")
	}
	e := segmentEnd("EdgeSoftmax", offsets)
	if dst.Value.Rows() != len(offsets)-1 {
		panic(fmt.Sprintf("autograd: EdgeSoftmax %d destination scores for %d segments", dst.Value.Rows(), len(offsets)-1))
	}
	// As in aggregate: a nil index is the identity only over one row per
	// edge; over any other column it is an edgeless block.
	if identity := srcRow == nil && src.Value.Rows() == e; !identity && len(srcRow) != e {
		panic(fmt.Sprintf("autograd: EdgeSoftmax %d source rows over %d scores for %d edges",
			len(srcRow), src.Value.Rows(), e))
	}
	out := t.allocUnzeroed(e, 1)
	p, sv, dv := out.Data(), src.Value.Data(), dst.Value.Data()
	leaky := [2]float32{slope, 1}
	for s := 0; s+1 < len(offsets); s++ {
		for i := int(offsets[s]); i < int(offsets[s+1]); i++ {
			x := sv[rowOf(srcRow, i)] + dv[s]
			p[i] = x * leaky[posBit(x)]
		}
	}
	tensor.SoftmaxSegments(p, p, offsets)
	return t.record(out, "edge_softmax", func(grad *tensor.Tensor) {
		var gs, gd []float32
		if src.requiresGrad {
			gs = src.gradBuf().Data()
		}
		if dst.requiresGrad {
			gd = dst.gradBuf().Data()
		}
		g := grad.Data()
		for s := 0; s+1 < len(offsets); s++ {
			lo, hi := int(offsets[s]), int(offsets[s+1])
			dot := segmentDot(p[lo:hi], g[lo:hi])
			for i := lo; i < hi; i++ {
				r := rowOf(srcRow, i)
				// The conversions round where the unfused chain stored a
				// tensor, so no compiler may fuse them into the adds below.
				d := float32(float32(p[i]*(g[i]-dot)) * leaky[posBit(sv[r]+dv[s])])
				if gs != nil {
					gs[r] += d
				}
				if gd != nil {
					gd[s] += d
				}
			}
		}
	}, src, dst)
}

// posBit is 1 when v > 0 and 0 otherwise, NaN and ±0 included: the test as
// an index, so EdgeSoftmax's leaky masks multiply by {slope, 1}[v > 0]
// instead of branching on signs a random score mispredicts half the time.
// v > 0 holds exactly for the bits b in [1, 0x7F800000]: in uint32
// arithmetic b−1 < 0x7F800000, whose 64-bit difference borrows into the top
// bit. Multiplying by 1 is exact for every float, NaN and −0 too, so the
// select keeps the branchy form's bits.
func posBit(v float32) int {
	return int((uint64(math.Float32bits(v)-1) - 0x7F800000) >> 63)
}

// segmentEnd checks that offsets delimit contiguous segments starting at row
// 0 — offsets[0] is 0 and no offset is below its predecessor — and returns
// the row the last segment ends at. Softmax outputs are drawn uncleared, so
// a row outside every segment would hold stale storage; the panic names the
// first offset that breaks the contract.
func segmentEnd(op string, offsets []int32) int {
	if len(offsets) == 0 {
		panic(fmt.Sprintf("autograd: %s needs at least one offset", op))
	}
	if offsets[0] != 0 {
		panic(fmt.Sprintf("autograd: %s offsets[0] = %d, want 0", op, offsets[0]))
	}
	for s := 1; s < len(offsets); s++ {
		if offsets[s] < offsets[s-1] {
			panic(fmt.Sprintf("autograd: %s offsets[%d] = %d is below offsets[%d] = %d",
				op, s, offsets[s], s-1, offsets[s-1]))
		}
	}
	return int(offsets[len(offsets)-1])
}

// segmentDot is Σ p[i]·g[i] over one segment, in float64: the term the
// softmax dual p[i]·(g[i] − Σ p·g) subtracts.
func segmentDot(p, g []float32) float32 {
	g = g[:len(p)]
	var dot float64
	for i, v := range p {
		dot += float64(float64(v) * float64(g[i]))
	}
	return float32(dot)
}

// BroadcastColMul multiplies each row i of x by the scalar in column vector
// c (Ex1), differentiably in both arguments. Used to weight edge messages by
// attention coefficients.
func (t *Tape) BroadcastColMul(x, c *Variable) *Variable {
	if c.Value.Cols() != 1 || c.Value.Rows() != x.Value.Rows() {
		panic("autograd: BroadcastColMul wants c of shape Rx1 matching x rows")
	}
	r, cols := x.Value.Rows(), x.Value.Cols()
	out := t.allocUnzeroed(r, cols)
	tensor.MulColVecInto(out, x.Value, c.Value.Data())
	return t.record(out, "broadcast_col_mul", func(grad *tensor.Tensor) {
		if x.requiresGrad {
			gx := t.allocUnzeroed(r, cols)
			tensor.MulColVecInto(gx, grad, c.Value.Data())
			x.adopt(gx)
		}
		if c.requiresGrad {
			gc := t.allocUnzeroed(r, 1)
			for i := 0; i < r; i++ {
				gc.Set(i, 0, tensor.Dot(grad.Row(i), x.Value.Row(i)))
			}
			c.adopt(gc)
		}
	}, x, c)
}
