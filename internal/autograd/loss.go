package autograd

import (
	"fmt"
	"math"

	"neutronstar/internal/tensor"
)

// CrossEntropyMasked is the mean negative log-likelihood of the row-wise
// log-softmax of logits over the rows selected by mask — what the engines
// train on, restricted to the labeled vertex set V_L — as one op. It
// returns a 1x1 loss variable and the number of rows that contributed;
// labels[i] is read only where mask[i] is set, and must then name a column
// of logits (it panics otherwise).
//
// Only masked rows are computed: their log-softmax with
// tensor.LogSoftmaxRowsInto, and in backward logSoftmaxBackwardRow on the
// one-hot row that holds −grad/n at the label; every other row's gradient
// is +0. The loss and every gradient therefore carry the bits of a row-wise
// log-softmax followed by a masked NLL over its output, with one exception:
// an unmasked row whose log-softmax is NaN (a NaN or +Inf logit, or every
// logit −Inf), which that chain would turn into a NaN gradient for the row,
// gets +0.
func (t *Tape) CrossEntropyMasked(logits *Variable, labels []int32, mask []bool) (*Variable, int) {
	r, cols := logits.Value.Rows(), logits.Value.Cols()
	if len(labels) != r || len(mask) != r {
		panic(fmt.Sprintf("autograd: CrossEntropyMasked %d rows, %d labels, %d mask", r, len(labels), len(mask)))
	}
	n := 0
	for i, m := range mask {
		if !m {
			continue
		}
		if uint32(labels[i]) >= uint32(cols) {
			panic(fmt.Sprintf("autograd: CrossEntropyMasked row %d label %d outside %d classes", i, labels[i], cols))
		}
		n++
	}
	// logp holds the masked rows' log-softmax, in row order, for backward.
	logp := t.allocUnzeroed(n, cols)
	tensor.LogSoftmaxRowsInto(logp, logits.Value, mask)
	var loss float64
	k := 0
	for i, m := range mask {
		if m {
			loss -= float64(logp.At(k, int(labels[i])))
			k++
		}
	}
	out := t.alloc(1, 1)
	if n > 0 {
		out.Set(0, 0, float32(loss/float64(n)))
	}
	v := t.record(out, "cross_entropy", func(grad *tensor.Tensor) {
		if !logits.requiresGrad || n == 0 {
			return
		}
		scale := grad.At(0, 0) / float32(n)
		g := t.allocUnzeroed(r, cols)
		// The masked rows' softmax first, one kernel call per chunk of
		// logp, then the dual row by row over it.
		tensor.ExpInto(g, logp, mask)
		oneHot := t.alloc(1, cols).Data()
		k := 0
		for i, m := range mask {
			if !m {
				clear(g.Row(i))
				continue
			}
			oneHot[labels[i]] = -scale
			logSoftmaxBackwardRow(g.Row(i), oneHot, logp.Row(k))
			oneHot[labels[i]] = 0
			k++
		}
		logits.adopt(g)
	}, logits)
	return v, n
}

// logSoftmaxBackwardRow writes dst_j = g_j - softmax(x)_j * sum_k g_k for one
// row, softmax(x)_j being float32(exp(o_j)) of the forward output o, which
// dst holds on entry. A row whose upstream sum is zero has dst_j = g_j -
// exp(o_j)·0, which is g_j unless exp(o_j) is NaN or +Inf: o_j <= 0, what a
// log-softmax output is unless NaN, takes g_j without reading the
// exponential, and anything else (a NaN row) the unskipped expression.
func logSoftmaxBackwardRow(dst, g, o []float32) {
	var sum float64
	for _, v := range g {
		sum += float64(v)
	}
	dst, o = dst[:len(g)], o[:len(g)]
	s := float32(sum)
	for j, v := range g {
		if sum == 0 && o[j] <= 0 {
			dst[j] = v
		} else {
			dst[j] = v - float32(dst[j]*s)
		}
	}
}

// BCEWithLogitsLoss computes the mean binary cross-entropy between logits
// and targets (0/1 values, captured by reference as constants), using the
// numerically stable formulation. It returns a 1x1 loss variable.
func (t *Tape) BCEWithLogitsLoss(logits *Variable, targets []float32) *Variable {
	n := logits.Value.Len()
	if len(targets) != n {
		panic(fmt.Sprintf("autograd: BCE %d logits, %d targets", n, len(targets)))
	}
	var loss float64
	for i, x := range logits.Value.Data() {
		xf := float64(x)
		tf := float64(targets[i])
		// max(x,0) - x*t + log(1+exp(-|x|))
		loss += math.Max(xf, 0) - float64(xf*tf) + math.Log1p(tensor.Exp(-math.Abs(xf)))
	}
	out := t.alloc(1, 1)
	out.Set(0, 0, float32(loss/float64(n)))
	return t.record(out, "bce_logits", func(grad *tensor.Tensor) {
		if !logits.requiresGrad {
			return
		}
		scale := grad.At(0, 0) / float32(n)
		g := t.alloc(logits.Value.Rows(), logits.Value.Cols())
		for i, x := range logits.Value.Data() {
			s := float32(1 / (1 + tensor.Exp(-float64(x))))
			g.Data()[i] = scale * (s - targets[i])
		}
		logits.adopt(g)
	}, logits)
}

// RowSum reduces each row of x to its scalar sum, producing an Rx1 column —
// the pairing reduction used by dot-product edge decoders.
func (t *Tape) RowSum(x *Variable) *Variable {
	r := x.Value.Rows()
	out := t.alloc(r, 1)
	for i := 0; i < r; i++ {
		var s float32
		for _, v := range x.Value.Row(i) {
			s += v
		}
		out.Set(i, 0, s)
	}
	return t.record(out, "row_sum", func(grad *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		g := t.alloc(r, x.Value.Cols())
		for i := 0; i < r; i++ {
			gi := grad.At(i, 0)
			row := g.Row(i)
			for j := range row {
				row[j] = gi
			}
		}
		x.adopt(g)
	}, x)
}
