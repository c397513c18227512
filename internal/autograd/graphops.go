package autograd

import (
	"fmt"
	"math"
	"time"

	"neutronstar/internal/tensor"
)

// The operations in this file are the differentiable halves of NeutronStar's
// decoupled graph operations (§4.1): ScatterToEdge is a Gather over source or
// destination indices, GatherByDst is a ScatterAddRows keyed by destination,
// and GAT's per-destination attention normalisation is SegmentSoftmax.
// Their backward rules are the paper's ScatterBackToEdge / GatherBySrc duals.
// The decoupled ops are the programming model; sum-type layers execute the
// three of them as one Aggregate, which never builds the per-edge tensors.

// Gather selects rows of x by idx: out[i] = x[idx[i]]. The same source row may
// appear many times (a vertex feeds all its out-edges); the backward pass
// scatter-adds edge gradients back to the vertex rows.
func (t *Tape) Gather(x *Variable, idx []int32) *Variable {
	start := time.Now()
	cols := x.Value.Cols()
	out := t.alloc(len(idx), cols)
	for i, src := range idx {
		copy(out.Row(i), x.Value.Row(int(src)))
	}
	obsGatherSeconds.Observe(time.Since(start).Seconds())
	return t.record(out, "gather", func(grad *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		g := t.alloc(x.Value.Rows(), x.Value.Cols())
		for i, src := range idx {
			tensor.AddTo(g.Row(int(src)), grad.Row(i))
		}
		x.accumulate(g)
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
// before it is added (tensor.Axpy's contract: no FMA contraction), so the
// values are bit-identical to
// ScatterAddRows(MulColVec(Gather(x, src), coeff), dst).
// The backward pass is the same loop with the two indices swapped,
// x.Grad[src[e]] += coeff[e] · dOut[dst[e]], accumulated in place.
func (t *Tape) Aggregate(x *Variable, src []int32, coeff []float32, dst []int32, numDst int) *Variable {
	return t.aggregate(x, src, coeff, nil, dst, numDst)
}

// AggregateWeighted is Aggregate with a differentiable Ex1 coefficient
// column (GAT's attention α): values bit-identical to
// ScatterAddRows(BroadcastColMul(Gather(x, src), alpha), dst). Besides x's
// gradient, backward adds the per-edge dot dOut[dst[e]] · x[src[e]] to
// alpha.Grad[e].
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
	start := time.Now()
	out := t.alloc(numDst, x.Value.Cols())
	scaledScatterAdd(out, dst, x.Value, src, coeff, len(dst))
	obsAggregateSeconds.Observe(time.Since(start).Seconds())
	return t.record(out, "aggregate", func(grad *tensor.Tensor) {
		if alpha != nil && alpha.requiresGrad {
			ga := alpha.gradBuf().Data()
			for e, d := range dst {
				s := e
				if src != nil {
					s = int(src[e])
				}
				ga[e] += tensor.Dot(grad.Row(int(d)), x.Value.Row(s))
			}
		}
		if x.requiresGrad {
			scaledScatterAdd(x.gradBuf(), src, grad, dst, coeff, len(dst))
		}
	}, x, alpha)
}

// scaledScatterAdd is out[oi[e]] += c[e] · in[ii[e]] for e = 0..n-1 in order,
// one row kernel per edge. A nil index stands for the identity and a nil c
// for all ones.
func scaledScatterAdd(out *tensor.Tensor, oi []int32, in *tensor.Tensor, ii []int32, c []float32, n int) {
	for e := 0; e < n; e++ {
		o, i := e, e
		if oi != nil {
			o = int(oi[e])
		}
		if ii != nil {
			i = int(ii[e])
		}
		if c == nil {
			tensor.AddTo(out.Row(o), in.Row(i))
		} else {
			tensor.Axpy(out.Row(o), c[e], in.Row(i))
		}
	}
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
		edges.accumulate(g)
	}, edges)
}

// SegmentSoftmax normalises the Ex1 score column within contiguous segments.
// offsets has numSegments+1 entries; segment s spans rows
// [offsets[s], offsets[s+1]). Scores must therefore be ordered by segment
// (for GAT: edges sorted by destination, i.e. CSC order).
func (t *Tape) SegmentSoftmax(scores *Variable, offsets []int32) *Variable {
	if scores.Value.Cols() != 1 {
		panic("autograd: SegmentSoftmax wants an Ex1 score column")
	}
	e := scores.Value.Rows()
	if int(offsets[len(offsets)-1]) != e {
		panic(fmt.Sprintf("autograd: SegmentSoftmax offsets end %d != %d rows", offsets[len(offsets)-1], e))
	}
	out := t.alloc(e, 1)
	src := scores.Value.Data()
	dst := out.Data()
	for s := 0; s+1 < len(offsets); s++ {
		lo, hi := int(offsets[s]), int(offsets[s+1])
		if lo == hi {
			continue
		}
		maxV := float32(math.Inf(-1))
		for i := lo; i < hi; i++ {
			if src[i] > maxV {
				maxV = src[i]
			}
		}
		var sum float64
		for i := lo; i < hi; i++ {
			v := math.Exp(float64(src[i] - maxV))
			dst[i] = float32(v)
			sum += v
		}
		inv := float32(1 / sum)
		for i := lo; i < hi; i++ {
			dst[i] *= inv
		}
	}
	return t.record(out, "segment_softmax", func(grad *tensor.Tensor) {
		if !scores.requiresGrad {
			return
		}
		g := t.alloc(e, 1)
		gd, p := grad.Data(), out.Data()
		for s := 0; s+1 < len(offsets); s++ {
			lo, hi := int(offsets[s]), int(offsets[s+1])
			var dot float64
			for i := lo; i < hi; i++ {
				dot += float64(p[i]) * float64(gd[i])
			}
			for i := lo; i < hi; i++ {
				g.Data()[i] = p[i] * (gd[i] - float32(dot))
			}
		}
		scores.accumulate(g)
	}, scores)
}

// BroadcastColMul multiplies each row i of x by the scalar in column vector
// c (Ex1), differentiably in both arguments. Used to weight edge messages by
// attention coefficients.
func (t *Tape) BroadcastColMul(x, c *Variable) *Variable {
	if c.Value.Cols() != 1 || c.Value.Rows() != x.Value.Rows() {
		panic("autograd: BroadcastColMul wants c of shape Rx1 matching x rows")
	}
	r, cols := x.Value.Rows(), x.Value.Cols()
	out := t.alloc(r, cols)
	for i := 0; i < r; i++ {
		ci := c.Value.At(i, 0)
		src, dst := x.Value.Row(i), out.Row(i)
		for j, v := range src {
			dst[j] = v * ci
		}
	}
	return t.record(out, "broadcast_col_mul", func(grad *tensor.Tensor) {
		if x.requiresGrad {
			gx := t.alloc(r, cols)
			for i := 0; i < r; i++ {
				ci := c.Value.At(i, 0)
				src, dst := grad.Row(i), gx.Row(i)
				for j, v := range src {
					dst[j] = v * ci
				}
			}
			x.accumulate(gx)
		}
		if c.requiresGrad {
			gc := t.alloc(r, 1)
			for i := 0; i < r; i++ {
				gc.Set(i, 0, tensor.Dot(grad.Row(i), x.Value.Row(i)))
			}
			c.accumulate(gc)
		}
	}, x, c)
}
