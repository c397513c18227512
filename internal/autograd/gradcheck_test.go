package autograd_test

import (
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/tensor"
	"neutronstar/internal/testkit"
)

// TestTapeOpGradients finite-differences the tape ops that the decoupled-op
// fixture in testkit does not already route through: structural ops (concat,
// slice, scale, elementwise mul, row reduction) and the loss heads. Together
// with testkit.CheckDecoupledOps this closes gradient coverage over every
// backward rule the tape implements.
func TestTapeOpGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	a := tensor.RandNormal(4, 3, 0, 1, rng)
	b := tensor.RandNormal(4, 3, 0, 1, rng)
	c := tensor.RandNormal(4, 2, 0, 1, rng)
	logits := tensor.RandNormal(5, 3, 0, 1, rng)
	labels := []int32{0, 2, 1, 0, 2}
	mask := []bool{true, false, true, true, false}
	targets := []float32{1, 0, 1, 0}
	w := tensor.RandNormal(3, 2, 0, 1, rng)
	bias := tensor.RandNormal(1, 2, 0, 1, rng)

	cases := []struct {
		name   string
		inputs []*tensor.Tensor
		build  testkit.Closure
	}{
		{"concat_rows", []*tensor.Tensor{a, b}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return tp.ConcatRows(xs[0], xs[1])
		}},
		{"slice_rows", []*tensor.Tensor{a}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return tp.SliceRows(xs[0], 1, 3)
		}},
		{"scale", []*tensor.Tensor{a}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return tp.Scale(xs[0], 0.37)
		}},
		{"mul", []*tensor.Tensor{a, b}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return tp.Mul(xs[0], xs[1])
		}},
		{"row_sum", []*tensor.Tensor{a}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return tp.RowSum(xs[0])
		}},
		{"cross_entropy", []*tensor.Tensor{logits}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			loss, _ := tp.CrossEntropyMasked(xs[0], labels, mask)
			return loss
		}},
		{"linear", []*tensor.Tensor{a, w, bias}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return tp.Linear(xs[0], xs[1], xs[2], false)
		}},
		{"linear_relu", []*tensor.Tensor{a, w, bias}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return tp.Linear(xs[0], xs[1], xs[2], true)
		}},
		{"bce_logits", []*tensor.Tensor{c}, func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return tp.BCEWithLogitsLoss(tp.RowSum(xs[0]), targets)
		}},
	}
	for _, tc := range cases {
		for _, r := range testkit.CheckClosure(tc.name, tc.inputs, tc.build, 91, 1e-3, 0) {
			if r.RelErr >= 1e-3 {
				t.Errorf("FAIL %s", r)
			} else {
				t.Logf("ok   %s", r)
			}
		}
	}
}
