package autograd

import (
	"fmt"
	"math"
	"testing"

	"neutronstar/internal/tensor"
)

// logSoftmaxBackwardUnskipped is LogSoftmax's backward row as it was before
// rows without gradient were skipped: every element pays its exp.
func logSoftmaxBackwardUnskipped(dst, g, o []float32) {
	var sum float64
	for _, v := range g {
		sum += float64(v)
	}
	for j, v := range g {
		dst[j] = v - float32(math.Exp(float64(o[j])))*float32(sum)
	}
}

// TestLogSoftmaxBackwardSkipsUngradedRows holds the skipping backward row to
// the unskipped one, bit for bit, over forward outputs holding ±0, −Inf, NaN,
// +Inf and positive values, and upstream rows that are all +0, all −0, mixed
// zeros, cancelling to a zero sum, or carrying a gradient. A NaN or +Inf
// output under a zero-sum row must still come out NaN.
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

	// Through the tape, with the masked-out rows a loss leaves at zero.
	rng := tensor.NewRNG(5)
	x := tensor.RandNormal(6, 5, 0, 3, rng)
	x.Set(2, 1, float32(math.Inf(-1)))
	x.Set(4, 3, nan)
	seed := tensor.RandNormal(6, 5, 0, 1, rng)
	for _, r := range []int{1, 2, 4} {
		clear(seed.Row(r))
	}
	tape := NewTape()
	xv := tape.Leaf(x, true, "x")
	out := tape.LogSoftmax(xv)
	tape.Backward(out, seed)
	for i := 0; i < x.Rows(); i++ {
		want := make([]float32, x.Cols())
		logSoftmaxBackwardUnskipped(want, seed.Row(i), out.Value.Row(i))
		for j, v := range xv.Grad.Row(i) {
			if w := 0 + want[j]; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: x.Grad[%d][%d] = %v, unskipped %v", fmt.Sprint(x.Row(i)), i, j, v, w)
			}
		}
	}
}
