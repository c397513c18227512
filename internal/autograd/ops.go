package autograd

import (
	"fmt"

	"neutronstar/internal/tensor"
)

// MatMul returns a @ b on the tape. All three GEMMs write every element of
// their destination, so the product, dA and dB are drawn uncleared.
func (t *Tape) MatMul(a, b *Variable) *Variable {
	out := t.allocUnzeroed(a.Value.Rows(), b.Value.Cols())
	tensor.MatMulInto(out, a.Value, b.Value)
	return t.record(out, "matmul", func(grad *tensor.Tensor) {
		if a.requiresGrad {
			ga := t.allocUnzeroed(grad.Rows(), b.Value.Rows())
			tensor.MatMulTBInto(ga, grad, b.Value) // dA = dOut @ Bᵀ
			a.adopt(ga)
		}
		if b.requiresGrad {
			gb := t.allocUnzeroed(a.Value.Cols(), grad.Cols())
			tensor.MatMulTAInto(gb, a.Value, grad) // dB = Aᵀ @ dOut
			b.adopt(gb)
		}
	}, a, b)
}

// Linear is the dense-layer tail as one op: x @ w + b, rectified when relu
// is set, where b is a 1xC row vector added to every row. Forward and
// backward have the bits of MatMul followed by AddBias (AddBiasReLU with
// relu), without the pre-activation product on the tape: the GEMM adds the
// bias (and rectifies) while each group of rows is in cache
// (tensor.MatMulBiasInto). Backward masks the gradient by the output and
// sums the bias gradient in the same pass over its rows
// (tensor.ReLUBackwardSumRowsInto), then runs dx = g @ wᵀ and dw = xᵀ @ g on
// it.
func (t *Tape) Linear(x, w, b *Variable, relu bool) *Variable {
	out := t.allocUnzeroed(x.Value.Rows(), w.Value.Cols())
	tensor.MatMulBiasInto(out, x.Value, w.Value, b.Value, relu)
	return t.record(out, "linear", func(grad *tensor.Tensor) {
		var gb *tensor.Tensor
		if b.requiresGrad {
			gb = t.allocUnzeroed(1, grad.Cols())
		}
		g := grad
		if relu {
			g = t.allocUnzeroed(grad.Rows(), grad.Cols())
			tensor.ReLUBackwardSumRowsInto(g, gb, grad, out)
		} else if gb != nil {
			tensor.SumRowsInto(gb, grad)
		}
		if gb != nil {
			b.adopt(gb)
		}
		if x.requiresGrad {
			gx := t.allocUnzeroed(grad.Rows(), w.Value.Rows())
			tensor.MatMulTBInto(gx, g, w.Value)
			x.adopt(gx)
		}
		if w.requiresGrad {
			gw := t.allocUnzeroed(x.Value.Cols(), grad.Cols())
			tensor.MatMulTAInto(gw, x.Value, g)
			w.adopt(gw)
		}
	}, x, w, b)
}

// Add returns a + b element-wise.
func (t *Tape) Add(a, b *Variable) *Variable {
	out := t.allocUnzeroed(a.Value.Rows(), a.Value.Cols())
	tensor.AddInto(out, a.Value, b.Value)
	return t.record(out, "add", func(grad *tensor.Tensor) {
		a.accumulate(grad)
		b.accumulate(grad)
	}, a, b)
}

// AddBias adds the 1xC row vector bias to every row of x.
func (t *Tape) AddBias(x, bias *Variable) *Variable {
	out := t.allocUnzeroed(x.Value.Rows(), x.Value.Cols())
	out.CopyFrom(x.Value)
	tensor.AddRowVector(out, bias.Value)
	return t.record(out, "add_bias", func(grad *tensor.Tensor) {
		x.accumulate(grad)
		if bias.requiresGrad {
			gb := t.allocUnzeroed(1, grad.Cols())
			tensor.SumRowsInto(gb, grad)
			bias.adopt(gb)
		}
	}, x, bias)
}

// AddBiasReLU fuses AddBias and ReLU: max(0, x + bias) in one pass, with no
// pre-activation intermediate on the tape. Forward and backward are
// bit-identical to the unfused chain (the rectifier's mask can be read off
// the fused output because out > 0 exactly when x+bias > 0).
func (t *Tape) AddBiasReLU(x, bias *Variable) *Variable {
	out := t.allocUnzeroed(x.Value.Rows(), x.Value.Cols())
	tensor.AddBiasReLUInto(out, x.Value, bias.Value)
	return t.record(out, "add_bias_relu", func(grad *tensor.Tensor) {
		g := t.allocUnzeroed(grad.Rows(), grad.Cols())
		var gb *tensor.Tensor
		if bias.requiresGrad {
			gb = t.allocUnzeroed(1, grad.Cols())
		}
		tensor.ReLUBackwardSumRowsInto(g, gb, grad, out)
		if gb != nil {
			bias.adopt(gb)
		}
		x.adopt(g)
	}, x, bias)
}

// Scale returns x * s.
func (t *Tape) Scale(x *Variable, s float32) *Variable {
	out := t.allocUnzeroed(x.Value.Rows(), x.Value.Cols())
	tensor.ScaleInto(out, x.Value, s)
	return t.record(out, "scale", func(grad *tensor.Tensor) {
		g := t.allocUnzeroed(grad.Rows(), grad.Cols())
		tensor.ScaleInto(g, grad, s)
		x.adopt(g)
	}, x)
}

// Mul returns the element-wise product a*b.
func (t *Tape) Mul(a, b *Variable) *Variable {
	out := t.allocUnzeroed(a.Value.Rows(), a.Value.Cols())
	tensor.MulInto(out, a.Value, b.Value)
	return t.record(out, "mul", func(grad *tensor.Tensor) {
		if a.requiresGrad {
			ga := t.allocUnzeroed(grad.Rows(), grad.Cols())
			tensor.MulInto(ga, grad, b.Value)
			a.adopt(ga)
		}
		if b.requiresGrad {
			gb := t.allocUnzeroed(grad.Rows(), grad.Cols())
			tensor.MulInto(gb, grad, a.Value)
			b.adopt(gb)
		}
	}, a, b)
}

// ReLU applies max(0, x) element-wise.
func (t *Tape) ReLU(x *Variable) *Variable {
	out := t.allocUnzeroed(x.Value.Rows(), x.Value.Cols())
	tensor.ReLUInto(out, x.Value)
	return t.record(out, "relu", func(grad *tensor.Tensor) {
		g := t.allocUnzeroed(grad.Rows(), grad.Cols())
		tensor.ReLUBackwardInto(g, grad, x.Value)
		x.adopt(g)
	}, x)
}

// LeakyReLU applies x>0 ? x : slope*x element-wise.
func (t *Tape) LeakyReLU(x *Variable, slope float32) *Variable {
	out := t.allocUnzeroed(x.Value.Rows(), x.Value.Cols())
	tensor.LeakyReLUInto(out, x.Value, slope)
	return t.record(out, "leaky_relu", func(grad *tensor.Tensor) {
		g := t.allocUnzeroed(grad.Rows(), grad.Cols())
		tensor.LeakyReLUBackwardInto(g, grad, x.Value, slope)
		x.adopt(g)
	}, x)
}

// Dropout applies inverted dropout with probability p when training is true;
// otherwise it is the identity.
func (t *Tape) Dropout(x *Variable, p float32, rng *tensor.RNG, training bool) *Variable {
	if !training || p <= 0 {
		return x
	}
	out := t.alloc(x.Value.Rows(), x.Value.Cols())
	mask := t.alloc(x.Value.Rows(), x.Value.Cols())
	tensor.DropoutInto(out, mask, x.Value, p, rng)
	return t.record(out, "dropout", func(grad *tensor.Tensor) {
		g := t.allocUnzeroed(grad.Rows(), grad.Cols())
		tensor.MulInto(g, grad, mask)
		x.adopt(g)
	}, x)
}

// ConcatRows stacks variables vertically. All must share the column count.
func (t *Tape) ConcatRows(parts ...*Variable) *Variable {
	if len(parts) == 0 {
		panic("autograd: ConcatRows with no parts")
	}
	cols := parts[0].Value.Cols()
	total := 0
	for _, p := range parts {
		if p.Value.Cols() != cols {
			panic("autograd: ConcatRows column mismatch")
		}
		total += p.Value.Rows()
	}
	out := t.allocUnzeroed(total, cols)
	off := 0
	for _, p := range parts {
		copy(out.Data()[off*cols:], p.Value.Data())
		off += p.Value.Rows()
	}
	ps := parts
	return t.record(out, "concat_rows", func(grad *tensor.Tensor) {
		off := 0
		for _, p := range ps {
			n := p.Value.Rows()
			if p.requiresGrad {
				g := t.allocUnzeroed(n, cols)
				copy(g.Data(), grad.Data()[off*cols:(off+n)*cols])
				p.adopt(g)
			}
			off += n
		}
	}, parts...)
}

// SliceRows takes rows [lo, hi) of x as a new variable.
func (t *Tape) SliceRows(x *Variable, lo, hi int) *Variable {
	src := x.Value.RowSlice(lo, hi)
	out := t.allocUnzeroed(src.Rows(), src.Cols())
	out.CopyFrom(src)
	return t.record(out, "slice_rows", func(grad *tensor.Tensor) {
		if !x.requiresGrad {
			return
		}
		g := t.alloc(x.Value.Rows(), x.Value.Cols())
		copy(g.Data()[lo*g.Cols():hi*g.Cols()], grad.Data())
		x.adopt(g)
	}, x)
}

// MulColVec multiplies each row i of x by coeff[i] (a per-row scalar).
// coeff is captured by reference and treated as a constant.
func (t *Tape) MulColVec(x *Variable, coeff []float32) *Variable {
	if len(coeff) != x.Value.Rows() {
		panic(fmt.Sprintf("autograd: MulColVec %d coeffs for %d rows", len(coeff), x.Value.Rows()))
	}
	out := t.allocUnzeroed(x.Value.Rows(), x.Value.Cols())
	tensor.MulColVecInto(out, x.Value, coeff)
	return t.record(out, "mul_colvec", func(grad *tensor.Tensor) {
		g := t.allocUnzeroed(grad.Rows(), grad.Cols())
		tensor.MulColVecInto(g, grad, coeff)
		x.adopt(g)
	}, x)
}

// RowDot computes, for each row i, the dot product of x's row i with the 1xC
// vector w, yielding an Rx1 column. Used for attention score computation.
// Every dot is tensor.Dot's, in one tensor.DotRows call. Backward adds
// grad[i]·w straight into row i of x.Grad (tensor.AxpyRows) and sums
// grad[i]·x[i] over the rows in ascending i for w's gradient
// (tensor.WeightedSumRowsInto): the bits of one Axpy per row in each.
func (t *Tape) RowDot(x, w *Variable) *Variable {
	if w.Value.Rows() != 1 || w.Value.Cols() != x.Value.Cols() {
		panic("autograd: RowDot wants 1xC weight matching x columns")
	}
	r := x.Value.Rows()
	out := t.allocUnzeroed(r, 1)
	tensor.DotRows(out.Data(), w.Value.Row(0), x.Value.Data(), nil)
	return t.record(out, "row_dot", func(grad *tensor.Tensor) {
		if x.requiresGrad {
			tensor.AxpyRows(x.gradBuf(), grad.Data(), w.Value.Row(0))
		}
		if w.requiresGrad {
			gw := t.allocUnzeroed(1, w.Value.Cols())
			tensor.WeightedSumRowsInto(gw, x.Value, grad.Data())
			w.adopt(gw)
		}
	}, x, w)
}
