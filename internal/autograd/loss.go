package autograd

import (
	"fmt"
	"math"

	"neutronstar/internal/tensor"
)

// LogSoftmax applies a row-wise log-softmax.
func (t *Tape) LogSoftmax(x *Variable) *Variable {
	out := t.allocUnzeroed(x.Value.Rows(), x.Value.Cols())
	tensor.LogSoftmaxRowsInto(out, x.Value)
	return t.record(out, "log_softmax", func(grad *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		g := t.allocUnzeroed(grad.Rows(), grad.Cols())
		for i := 0; i < grad.Rows(); i++ {
			logSoftmaxBackwardRow(g.Row(i), grad.Row(i), out.Row(i))
		}
		x.accumulate(g)
	}, x)
}

// logSoftmaxBackwardRow writes dst_j = g_j - softmax(x)_j * sum_k g_k for one
// row, softmax(x)_j being exp(o_j) of the forward output o. A row whose
// upstream sum is zero — every row the loss masks out — has dst_j = g_j -
// exp(o_j)·0, which is g_j unless exp(o_j) is NaN or +Inf: o_j <= 0, what a
// log-softmax output is unless NaN, takes g_j without calling math.Exp, and
// anything else (a NaN row) the unskipped expression.
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
			dst[j] = v - float32(float32(math.Exp(float64(o[j])))*s)
		}
	}
}

// NLLLossMasked computes the mean negative log-likelihood of log-probability
// rows logp over the rows selected by mask (labels[i] is ignored where
// mask[i] is false). It returns a 1x1 loss variable and the number of rows
// that contributed. Rows with mask false receive zero gradient, which is how
// the engines restrict the loss to the labeled vertex set V_L.
func (t *Tape) NLLLossMasked(logp *Variable, labels []int32, mask []bool) (*Variable, int) {
	r := logp.Value.Rows()
	if len(labels) != r || len(mask) != r {
		panic(fmt.Sprintf("autograd: NLLLoss %d rows, %d labels, %d mask", r, len(labels), len(mask)))
	}
	n := 0
	var loss float64
	for i := 0; i < r; i++ {
		if !mask[i] {
			continue
		}
		n++
		loss -= float64(logp.Value.At(i, int(labels[i])))
	}
	out := t.alloc(1, 1)
	if n > 0 {
		out.Set(0, 0, float32(loss/float64(n)))
	}
	count := n
	v := t.record(out, "nll_loss", func(grad *tensor.Tensor) {
		if !logp.requiresGrad || count == 0 {
			return
		}
		scale := grad.At(0, 0) / float32(count)
		g := t.alloc(r, logp.Value.Cols())
		for i := 0; i < r; i++ {
			if mask[i] {
				g.Set(i, int(labels[i]), -scale)
			}
		}
		logp.accumulate(g)
	}, logp)
	return v, n
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
		loss += math.Max(xf, 0) - float64(xf*tf) + math.Log1p(math.Exp(-math.Abs(xf)))
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
			s := float32(1 / (1 + math.Exp(-float64(x))))
			g.Data()[i] = scale * (s - targets[i])
		}
		logits.accumulate(g)
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
		x.accumulate(g)
	}, x)
}
