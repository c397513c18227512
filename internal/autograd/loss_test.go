package autograd

import (
	"fmt"
	"math"
	"testing"

	"neutronstar/internal/tensor"
)

// unfusedCrossEntropy is the chain CrossEntropyMasked fuses, as the tape ran
// it: the row-wise log-softmax of every row (tensor.LogSoftmaxRows), the mean
// NLL of the masked rows' labels, and its gradient for a loss seed — a
// one-hot −seed/n row for each masked row and +0 elsewhere, added into a
// cleared buffer, taken back through the log-softmax by the unskipped row and
// added into a cleared buffer again.
func unfusedCrossEntropy(x *tensor.Tensor, labels []int32, mask []bool, seed float32) (float32, *tensor.Tensor) {
	logp := tensor.LogSoftmaxRows(x)
	n := 0
	var loss float64
	for i, m := range mask {
		if m {
			n++
			loss -= float64(logp.At(i, int(labels[i])))
		}
	}
	scale := seed / float32(n)
	nll := tensor.New(x.Rows(), x.Cols())
	for i, m := range mask {
		if m {
			nll.Set(i, int(labels[i]), -scale)
		}
	}
	nll = tensor.Add(tensor.New(x.Rows(), x.Cols()), nll)
	g := tensor.New(x.Rows(), x.Cols())
	for i := 0; i < x.Rows(); i++ {
		logSoftmaxBackwardUnskipped(g.Row(i), nll.Row(i), logp.Row(i))
	}
	return float32(loss / float64(n)), tensor.Add(tensor.New(x.Rows(), x.Cols()), g)
}

// bitsOf renders a row's bit patterns for comparison.
func bitsOf(row []float32) string {
	var s string
	for _, v := range row {
		s += fmt.Sprintf("%08x ", math.Float32bits(v))
	}
	return s
}

// logSoftmaxBackwardUnskipped is LogSoftmax's backward row as it was before
// rows without gradient were skipped: every element pays its exp.
func logSoftmaxBackwardUnskipped(dst, g, o []float32) {
	var sum float64
	for _, v := range g {
		sum += float64(v)
	}
	for j, v := range g {
		dst[j] = v - float32(tensor.Exp(float64(o[j])))*float32(sum)
	}
}

// TestLogSoftmaxBackwardSkipsUngradedRows holds the skipping backward row to
// the unskipped one, bit for bit, over forward outputs holding ±0, −Inf, NaN,
// +Inf and positive values, and upstream rows that are all +0, all −0, mixed
// zeros, cancelling to a zero sum, or carrying a gradient. A NaN or +Inf
// output under a zero-sum row must still come out NaN. Then it holds
// CrossEntropyMasked, loss and gradient, to the unfused log-softmax and NLL
// it replaces, bit for bit, but for the one documented difference.
func TestLogSoftmaxBackwardSkipsUngradedRows(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	outs := [][]float32{
		{-0.5, -1.25, -3, -0.01},
		{0, negZero, -2, -7},
		{float32(math.Inf(-1)), -0.1, float32(math.Inf(-1)), -4},
		{nan, nan, nan, nan},
		{-1, nan, -2, -3},
		{inf, -1, 0.5, 1e-30},
		{-90, -100, -1e-40, -200},
	}
	grads := [][]float32{
		{0, 0, 0, 0},
		{negZero, negZero, negZero, negZero},
		{0, negZero, 0, negZero},
		{1, -1, 0, negZero},
		{0, -0.25, 0, 0},
		{0.5, 1e-3, -2, 3},
	}
	for oi, o := range outs {
		for gi, g := range grads {
			got, want := make([]float32, len(g)), make([]float32, len(g))
			for j, v := range o {
				got[j] = float32(tensor.Exp(float64(v))) // the softmax dst holds on entry
			}
			logSoftmaxBackwardRow(got, g, o)
			logSoftmaxBackwardUnskipped(want, g, o)
			for j := range got {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("out %d %v, grad %d %v: element %d = %v (%#x), unskipped %v (%#x)",
						oi, o, gi, g, j, got[j], math.Float32bits(got[j]), want[j], math.Float32bits(want[j]))
				}
			}
		}
	}

	// Through the tape: CrossEntropyMasked against the unfused chain.
	rng := tensor.NewRNG(5)
	x := tensor.RandNormal(6, 5, 0, 3, rng)
	x.Set(2, 1, float32(math.Inf(-1)))
	labels := []int32{3, 0, 1, 4, 2, 0}
	mask := []bool{true, false, true, false, true, false}
	tape := NewTape()
	xv := tape.Leaf(x, true, "x")
	loss, n := tape.CrossEntropyMasked(xv, labels, mask)
	seed := tensor.FromSlice(1, 1, []float32{0.8})
	tape.Backward(loss, seed)
	wantLoss, wantGrad := unfusedCrossEntropy(x, labels, mask, 0.8)
	if n != 3 || math.Float32bits(loss.Value.At(0, 0)) != math.Float32bits(wantLoss) {
		t.Fatalf("loss %v over %d rows, unfused %v over 3", loss.Value.At(0, 0), n, wantLoss)
	}
	for i := 0; i < x.Rows(); i++ {
		for j, v := range xv.Grad.Row(i) {
			if w := wantGrad.At(i, j); math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: x.Grad[%d][%d] = %v, unfused %v", fmt.Sprint(x.Row(i)), i, j, v, w)
			}
		}
	}

	// The one difference: a row left out of the loss whose log-softmax is
	// NaN gets +0, where the unfused chain gives NaN.
	x.Set(3, 2, nan)
	x.Set(5, 0, inf)
	tape = NewTape()
	xv = tape.Leaf(x, true, "x")
	loss, _ = tape.CrossEntropyMasked(xv, labels, mask)
	tape.Backward(loss, seed)
	_, wantGrad = unfusedCrossEntropy(x, labels, mask, 0.8)
	for _, i := range []int{3, 5} {
		for j, v := range xv.Grad.Row(i) {
			if w := wantGrad.At(i, j); math.Float32bits(v) != 0 || !math.IsNaN(float64(w)) {
				t.Fatalf("NaN row %d: x.Grad[%d] = %v, unfused %v; want +0 and NaN", i, j, v, w)
			}
		}
	}
	if got := xv.Grad.Row(0); bitsOf(got) != bitsOf(wantGrad.Row(0)) {
		t.Fatalf("masked row 0 moved: %v, unfused %v", got, wantGrad.Row(0))
	}
}
