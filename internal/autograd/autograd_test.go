package autograd

import (
	"math"
	"testing"
	"testing/quick"

	"neutronstar/internal/tensor"
)

// checkGrad verifies the analytic gradient of a scalar-valued function
// against central finite differences. build must construct the computation on
// the given tape from the leaf values and return the scalar output variable
// along with the leaf variables whose gradients should be checked.
func checkGrad(t *testing.T, name string, inputs []*tensor.Tensor,
	build func(tape *Tape, leaves []*Variable) *Variable) {
	t.Helper()

	run := func() ([]*Variable, *Variable) {
		tape := NewTape()
		leaves := make([]*Variable, len(inputs))
		for i, in := range inputs {
			leaves[i] = tape.Leaf(in, true, "leaf")
		}
		out := build(tape, leaves)
		if out.Value.Len() != 1 {
			t.Fatalf("%s: build must return scalar, got %dx%d", name, out.Value.Rows(), out.Value.Cols())
		}
		tape.Backward(out, nil)
		return leaves, out
	}
	leaves, _ := run()

	const eps = 1e-3
	for li, in := range inputs {
		for k := range in.Data() {
			orig := in.Data()[k]
			in.Data()[k] = orig + eps
			_, plus := run()
			in.Data()[k] = orig - eps
			_, minus := run()
			in.Data()[k] = orig
			num := (float64(plus.Value.At(0, 0)) - float64(minus.Value.At(0, 0))) / (2 * eps)
			ana := float64(leaves[li].Grad.Data()[k])
			if math.Abs(num-ana) > 2e-2*math.Max(1, math.Abs(num)) {
				t.Fatalf("%s: leaf %d elem %d: analytic %v vs numeric %v", name, li, k, ana, num)
			}
		}
	}
}

// sumAll reduces any variable to a scalar by summing (a fixed differentiable
// reduction for gradient checking): implemented as x @ ones then ones @ ... —
// simpler: MSE against zeros times n/2... Use MatMul with ones vectors.
func sumAll(tape *Tape, x *Variable) *Variable {
	onesR := tensor.New(1, x.Value.Rows())
	onesR.Fill(1)
	onesC := tensor.New(x.Value.Cols(), 1)
	onesC.Fill(1)
	l := tape.Constant(onesR, "onesR")
	r := tape.Constant(onesC, "onesC")
	return tape.MatMul(tape.MatMul(l, x), r)
}

func randT(rows, cols int, seed uint64) *tensor.Tensor {
	return tensor.RandNormal(rows, cols, 0, 1, tensor.NewRNG(seed))
}

func TestGradMatMul(t *testing.T) {
	checkGrad(t, "matmul", []*tensor.Tensor{randT(3, 4, 1), randT(4, 2, 2)},
		func(tape *Tape, l []*Variable) *Variable {
			return sumAll(tape, tape.MatMul(l[0], l[1]))
		})
}

func TestGradAddAndBias(t *testing.T) {
	checkGrad(t, "add", []*tensor.Tensor{randT(2, 3, 3), randT(2, 3, 4)},
		func(tape *Tape, l []*Variable) *Variable {
			return sumAll(tape, tape.Add(l[0], l[1]))
		})
	checkGrad(t, "add_bias", []*tensor.Tensor{randT(3, 4, 5), randT(1, 4, 6)},
		func(tape *Tape, l []*Variable) *Variable {
			// Weight the output so bias grads differ per column.
			w := randT(4, 1, 7)
			return sumAll(tape, tape.MatMul(tape.AddBias(l[0], l[1]), tape.Constant(w, "w")))
		})
}

func TestGradMulScale(t *testing.T) {
	checkGrad(t, "mul", []*tensor.Tensor{randT(2, 3, 8), randT(2, 3, 9)},
		func(tape *Tape, l []*Variable) *Variable {
			return sumAll(tape, tape.Mul(l[0], l[1]))
		})
	checkGrad(t, "scale", []*tensor.Tensor{randT(2, 3, 10)},
		func(tape *Tape, l []*Variable) *Variable {
			return sumAll(tape, tape.Scale(l[0], 2.5))
		})
}

func TestGradReLUFamily(t *testing.T) {
	// Shift away from 0 to avoid kinks breaking finite differences.
	x := randT(3, 3, 11)
	for i, v := range x.Data() {
		if math.Abs(float64(v)) < 0.1 {
			x.Data()[i] = v + 0.2
		}
	}
	checkGrad(t, "relu", []*tensor.Tensor{x.Clone()},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(3, 1, 12)
			return sumAll(tape, tape.MatMul(tape.ReLU(l[0]), tape.Constant(w, "w")))
		})
	checkGrad(t, "leaky_relu", []*tensor.Tensor{x.Clone()},
		func(tape *Tape, l []*Variable) *Variable {
			return sumAll(tape, tape.LeakyReLU(l[0], 0.2))
		})
}

func TestGradConcat(t *testing.T) {
	checkGrad(t, "concat_rows", []*tensor.Tensor{randT(2, 3, 16), randT(4, 3, 17)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(3, 1, 18)
			return sumAll(tape, tape.MatMul(tape.ConcatRows(l[0], l[1]), tape.Constant(w, "w")))
		})
}

func TestGradSliceRows(t *testing.T) {
	checkGrad(t, "slice_rows", []*tensor.Tensor{randT(5, 3, 19)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(3, 1, 20)
			return sumAll(tape, tape.MatMul(tape.SliceRows(l[0], 1, 4), tape.Constant(w, "w")))
		})
}

func TestGradGatherScatter(t *testing.T) {
	idx := []int32{0, 2, 2, 1, 0}
	checkGrad(t, "gather", []*tensor.Tensor{randT(3, 2, 21)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(2, 1, 22)
			return sumAll(tape, tape.MatMul(tape.Gather(l[0], idx), tape.Constant(w, "w")))
		})
	checkGrad(t, "scatter_add", []*tensor.Tensor{randT(5, 2, 23)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(2, 1, 24)
			return sumAll(tape, tape.MatMul(tape.ScatterAddRows(l[0], idx, 3), tape.Constant(w, "w")))
		})
}

func TestGradScatterMax(t *testing.T) {
	idx := []int32{0, 1, 1, 0}
	checkGrad(t, "scatter_max", []*tensor.Tensor{randT(4, 3, 25)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(3, 1, 26)
			return sumAll(tape, tape.MatMul(tape.ScatterMaxRows(l[0], idx, 2), tape.Constant(w, "w")))
		})
}

func TestGradSegmentSoftmax(t *testing.T) {
	offsets := []int32{0, 3, 5, 5, 7}
	checkGrad(t, "segment_softmax", []*tensor.Tensor{randT(7, 1, 27)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(1, 1, 28)
			return sumAll(tape, tape.MatMul(tape.SegmentSoftmax(l[0], offsets), tape.Constant(w, "w")))
		})
}

func TestGradBroadcastColMul(t *testing.T) {
	checkGrad(t, "broadcast_col_mul", []*tensor.Tensor{randT(4, 3, 29), randT(4, 1, 30)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(3, 1, 31)
			return sumAll(tape, tape.MatMul(tape.BroadcastColMul(l[0], l[1]), tape.Constant(w, "w")))
		})
}

func TestGradRowDot(t *testing.T) {
	checkGrad(t, "row_dot", []*tensor.Tensor{randT(4, 3, 32), randT(1, 3, 33)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(1, 1, 34)
			return sumAll(tape, tape.MatMul(tape.RowDot(l[0], l[1]), tape.Constant(w, "w")))
		})
}

func TestGradMulColVec(t *testing.T) {
	checkGrad(t, "mul_colvec", []*tensor.Tensor{randT(3, 2, 35)},
		func(tape *Tape, l []*Variable) *Variable {
			return sumAll(tape, tape.MulColVec(l[0], []float32{0.5, -1.5, 2}))
		})
}

func TestGradLogSoftmaxNLL(t *testing.T) {
	labels := []int32{0, 2, 1}
	mask := []bool{true, false, true}
	checkGrad(t, "cross_entropy", []*tensor.Tensor{randT(3, 3, 36)},
		func(tape *Tape, l []*Variable) *Variable {
			loss, n := tape.CrossEntropyMasked(l[0], labels, mask)
			if n != 2 {
				t.Fatalf("mask count = %d", n)
			}
			return loss
		})
}

func TestGradLinear(t *testing.T) {
	for _, relu := range []bool{false, true} {
		checkGrad(t, "linear", []*tensor.Tensor{randT(5, 4, 43), randT(4, 3, 44), randT(1, 3, 45)},
			func(tape *Tape, l []*Variable) *Variable {
				return sumAll(tape, tape.Linear(l[0], l[1], l[2], relu))
			})
	}
}

func TestGradTwoLayerMLPChain(t *testing.T) {
	// End-to-end: x @ W1 -> relu -> @ W2 -> cross-entropy.
	labels := []int32{1, 0, 2, 1}
	mask := []bool{true, true, true, true}
	checkGrad(t, "mlp_chain",
		[]*tensor.Tensor{randT(4, 5, 39), randT(5, 6, 40), randT(6, 3, 41)},
		func(tape *Tape, l []*Variable) *Variable {
			h := tape.ReLU(tape.MatMul(l[0], l[1]))
			logits := tape.MatMul(h, l[2])
			loss, _ := tape.CrossEntropyMasked(logits, labels, mask)
			return loss
		})
}

// TestAdoptedGradientsStayDistinct: a gradient temporary becomes its
// variable's Grad as it stands, so a gradient that feeds two variables — the
// pass-through of Add — must not be handed to both. Here a's second
// contribution arrives after Add has given a and b theirs; b's gradient must
// stay 1 while a's becomes 1 + 3.
func TestAdoptedGradientsStayDistinct(t *testing.T) {
	tape := NewTape()
	a := tape.Leaf(randT(2, 3, 46), true, "a")
	b := tape.Leaf(randT(2, 3, 47), true, "b")
	sa := tape.Scale(a, 3)
	s := sumAll(tape, tape.Add(tape.Add(a, b), sa))
	tape.Backward(s, nil)
	if a.Grad == b.Grad {
		t.Fatal("a and b share one gradient buffer")
	}
	for i := range a.Grad.Data() {
		if ga, gb := a.Grad.Data()[i], b.Grad.Data()[i]; ga != 4 || gb != 1 {
			t.Fatalf("element %d: dL/da = %v, dL/db = %v, want 4 and 1", i, ga, gb)
		}
	}
}

func TestBackwardAccumulatesOverReuse(t *testing.T) {
	// y = x + x should give dL/dx = 2 * ones.
	tape := NewTape()
	x := tape.Leaf(randT(2, 2, 42), true, "x")
	y := tape.Add(x, x)
	s := sumAll(tape, y)
	tape.Backward(s, nil)
	for _, v := range x.Grad.Data() {
		if math.Abs(float64(v)-2) > 1e-5 {
			t.Fatalf("reused-variable gradient = %v, want 2", v)
		}
	}
}

func TestConstantGetsNoGrad(t *testing.T) {
	tape := NewTape()
	c := tape.Constant(randT(2, 2, 43), "c")
	x := tape.Leaf(randT(2, 2, 44), true, "x")
	s := sumAll(tape, tape.Mul(c, x))
	tape.Backward(s, nil)
	if c.Grad != nil {
		t.Fatal("constant accumulated a gradient")
	}
	if x.Grad == nil {
		t.Fatal("leaf got no gradient")
	}
}

func TestDropoutTrainingFalseIsIdentity(t *testing.T) {
	tape := NewTape()
	x := tape.Leaf(randT(3, 3, 45), true, "x")
	y := tape.Dropout(x, 0.5, tensor.NewRNG(1), false)
	if y != x {
		t.Fatal("dropout in eval mode should be a no-op passthrough")
	}
}

func TestDropoutBackwardMask(t *testing.T) {
	tape := NewTape()
	in := tensor.New(1, 100)
	in.Fill(1)
	x := tape.Leaf(in, true, "x")
	y := tape.Dropout(x, 0.5, tensor.NewRNG(7), true)
	s := sumAll(tape, y)
	tape.Backward(s, nil)
	// Gradient must be zero exactly where output is zero, 1/(1-p) elsewhere.
	for i := range y.Value.Data() {
		out, g := y.Value.Data()[i], x.Grad.Data()[i]
		if out == 0 && g != 0 {
			t.Fatalf("grad leaked through dropped element %d", i)
		}
		if out != 0 && math.Abs(float64(g)-2) > 1e-5 {
			t.Fatalf("kept element %d grad = %v, want 2", i, g)
		}
	}
}

func TestTapeResetReuse(t *testing.T) {
	tape := NewTape()
	for iter := 0; iter < 3; iter++ {
		x := tape.Leaf(randT(2, 2, uint64(50+iter)), true, "x")
		s := sumAll(tape, tape.Scale(x, 3))
		tape.Backward(s, nil)
		for _, v := range x.Grad.Data() {
			if math.Abs(float64(v)-3) > 1e-5 {
				t.Fatalf("iter %d grad %v", iter, v)
			}
		}
		tape.Reset()
		if len(tape.Nodes()) != 0 {
			t.Fatal("Reset did not clear nodes")
		}
	}
}

func TestBackwardSeedShapePanics(t *testing.T) {
	tape := NewTape()
	x := tape.Leaf(randT(2, 2, 60), true, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar nil-seed root")
		}
	}()
	tape.Backward(x, nil)
}

// Property: gather then scatter-add with the same index is, in gradient
// terms, multiplication by the index multiplicity (the paper's
// ScatterToEdge/GatherBySrc duality).
func TestQuickGatherScatterDuality(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%6) + 2
		rng := tensor.NewRNG(seed)
		idx := make([]int32, n*2)
		count := make([]float32, n)
		for i := range idx {
			idx[i] = int32(rng.Intn(n))
			count[idx[i]]++
		}
		tape := NewTape()
		x := tape.Leaf(tensor.RandNormal(n, 3, 0, 1, rng), true, "x")
		edges := tape.Gather(x, idx)
		back := tape.ScatterAddRows(edges, idx, n)
		s := sumAll(tape, back)
		tape.Backward(s, nil)
		for i := 0; i < n; i++ {
			for _, g := range x.Grad.Row(i) {
				if math.Abs(float64(g-count[i])) > 1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: segment softmax output sums to 1 within every non-empty segment.
func TestQuickSegmentSoftmaxNormalised(t *testing.T) {
	f := func(seed uint64, segs8 uint8) bool {
		rng := tensor.NewRNG(seed)
		nSeg := int(segs8%5) + 1
		offsets := make([]int32, nSeg+1)
		total := int32(0)
		for s := 1; s <= nSeg; s++ {
			total += int32(rng.Intn(4)) // segments may be empty
			offsets[s] = total
		}
		tape := NewTape()
		scores := tape.Leaf(tensor.RandNormal(int(total), 1, 0, 2, rng), true, "s")
		p := tape.SegmentSoftmax(scores, offsets)
		for s := 0; s < nSeg; s++ {
			lo, hi := offsets[s], offsets[s+1]
			if lo == hi {
				continue
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += float64(p.Value.At(int(i), 0))
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGatherEmptyIndex(t *testing.T) {
	tape := NewTape()
	x := tape.Leaf(randT(3, 2, 70), true, "x")
	out := tape.Gather(x, nil)
	if out.Value.Rows() != 0 || out.Value.Cols() != 2 {
		t.Fatalf("empty gather shape %dx%d", out.Value.Rows(), out.Value.Cols())
	}
}

func TestScatterAddEmptyEdges(t *testing.T) {
	tape := NewTape()
	edges := tape.Leaf(tensor.New(0, 3), true, "e")
	out := tape.ScatterAddRows(edges, nil, 4)
	if out.Value.Rows() != 4 {
		t.Fatal("scatter to 4 rows failed")
	}
	if tensor.Norm(out.Value) != 0 {
		t.Fatal("empty scatter produced nonzero output")
	}
}

func TestBackwardIgnoresUnusedBranch(t *testing.T) {
	// A dead-end op (its output never reaches the root) must contribute no
	// gradient.
	tape := NewTape()
	x := tape.Leaf(randT(2, 2, 71), true, "x")
	_ = tape.Scale(x, 100) // dead branch
	out := tape.Scale(x, 2)
	s := sumAll(tape, out)
	tape.Backward(s, nil)
	for _, g := range x.Grad.Data() {
		if math.Abs(float64(g)-2) > 1e-5 {
			t.Fatalf("dead branch leaked gradient: %v", g)
		}
	}
}

func TestBackwardFromDifferentTapePanics(t *testing.T) {
	t1, t2 := NewTape(), NewTape()
	x := t1.Leaf(randT(1, 1, 72), true, "x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected cross-tape panic")
		}
	}()
	t2.Backward(x, nil)
}

func TestSegmentSoftmaxBadOffsetsPanics(t *testing.T) {
	tape := NewTape()
	s := tape.Leaf(randT(5, 1, 73), true, "s")
	defer func() {
		if recover() == nil {
			t.Fatal("expected offsets panic")
		}
	}()
	tape.SegmentSoftmax(s, []int32{0, 3}) // ends at 3, not 5
}

func TestGradBCEWithLogits(t *testing.T) {
	targets := []float32{1, 0, 1, 1, 0, 0}
	checkGrad(t, "bce", []*tensor.Tensor{randT(6, 1, 81)},
		func(tape *Tape, l []*Variable) *Variable {
			return tape.BCEWithLogitsLoss(l[0], targets)
		})
}

func TestGradRowSum(t *testing.T) {
	checkGrad(t, "row_sum", []*tensor.Tensor{randT(3, 4, 82)},
		func(tape *Tape, l []*Variable) *Variable {
			w := randT(1, 1, 83)
			return sumAll(tape, tape.MatMul(tape.RowSum(l[0]), tape.Constant(w, "w")))
		})
}

func TestBCEStableAtExtremes(t *testing.T) {
	tape := NewTape()
	x := tape.Leaf(tensor.FromRows([][]float32{{50}, {-50}}), true, "x")
	loss := tape.BCEWithLogitsLoss(x, []float32{1, 0})
	if v := loss.Value.At(0, 0); math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v > 1e-6 {
		t.Fatalf("extreme-logit BCE = %v, want ~0", v)
	}
	tape.Backward(loss, nil)
	for _, g := range x.Grad.Data() {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient at extreme logits")
		}
	}
}
