package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// Add returns t + o element-wise.
func Add(t, o *Tensor) *Tensor {
	out := New(t.rows, t.cols)
	AddInto(out, t, o)
	return out
}

// AddInto stores a + b into dst. All shapes must match; dst may be a or b
// but must not otherwise overlap either. Accumulating in place (dst is a or
// b) is one row-kernel call, and so is any other sum after a copy of a.
func AddInto(dst, a, b *Tensor) {
	a.mustSameShape(b, "Add")
	dst.mustSameShape(a, "Add")
	switch {
	case sameData(dst, a):
		AddTo(dst.data, b.data)
	case sameData(dst, b):
		AddTo(dst.data, a.data)
	default:
		copy(dst.data, a.data)
		addKernel(dst.data, b.data)
	}
}

// sameData reports whether a and b start at the same element (two empty
// tensors always do).
func sameData(a, b *Tensor) bool {
	return unsafe.SliceData(a.data) == unsafe.SliceData(b.data) || len(a.data) == 0
}

// Sub returns a - b element-wise.
func Sub(a, b *Tensor) *Tensor {
	a.mustSameShape(b, "Sub")
	out := New(a.rows, a.cols)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns the element-wise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	a.mustSameShape(b, "Mul")
	out := New(a.rows, a.cols)
	for i := range out.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// MulInto stores a*b element-wise into dst; dst may alias a or b.
func MulInto(dst, a, b *Tensor) {
	a.mustSameShape(b, "Mul")
	dst.mustSameShape(a, "Mul")
	for i := range dst.data {
		dst.data[i] = a.data[i] * b.data[i]
	}
}

// Scale returns t scaled by s.
func Scale(t *Tensor, s float32) *Tensor {
	out := New(t.rows, t.cols)
	ScaleInto(out, t, s)
	return out
}

// ScaleInto stores t*s element-wise into dst; dst may be t but must not
// otherwise overlap it.
func ScaleInto(dst, t *Tensor, s float32) {
	dst.mustSameShape(t, "Scale")
	scaleKernel(dst.data, s, t.data)
}

// MulColVecInto stores row i of t times c[i] into row i of dst, for every
// row: dst[i][j] = t[i][j]·c[i]. dst must have t's shape and c one entry a
// row; dst may be t but must not otherwise overlap it.
func MulColVecInto(dst, t *Tensor, c []float32) {
	dst.mustSameShape(t, "MulColVec")
	if len(c) != t.rows {
		panic(fmt.Sprintf("tensor: MulColVec %d coefficients for %d rows", len(c), t.rows))
	}
	for i, a := range c {
		scaleKernel(dst.Row(i), a, t.Row(i))
	}
}

// AddRowVector adds the 1xC row vector v to every row of t, in place.
func AddRowVector(t *Tensor, v *Tensor) {
	if v.rows != 1 || v.cols != t.cols {
		panic(fmt.Sprintf("tensor: AddRowVector %dx%d to %dx%d", v.rows, v.cols, t.rows, t.cols))
	}
	for i := 0; i < t.rows; i++ {
		AddTo(t.Row(i), v.data)
	}
}

// SumRowsInto stores the 1xC column-wise sum of t (the gradient of a
// broadcast row-vector add) into dst, which must have shape 1 x t.Cols() and
// must not alias t.
func SumRowsInto(dst, t *Tensor) {
	if dst.rows != 1 || dst.cols != t.cols {
		panic(fmt.Sprintf("tensor: SumRowsInto %dx%d from %dx%d", dst.rows, dst.cols, t.rows, t.cols))
	}
	dst.Zero()
	for i := 0; i < t.rows; i++ {
		AddTo(dst.data, t.Row(i))
	}
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func Sum(t *Tensor) float64 {
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Norm returns the Frobenius norm of t.
func Norm(t *Tensor) float64 {
	var s float64
	for _, v := range t.data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// ArgMaxRows returns, for each row, the column index of the maximum value.
func ArgMaxRows(t *Tensor) []int {
	out := make([]int, t.rows)
	for i := 0; i < t.rows; i++ {
		row := t.Row(i)
		best, bi := float32(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
}

// posMask is all ones when the float32 with bit pattern b is greater than
// zero and zero otherwise: the test `v > 0` as data, so the five rectifier
// loops below select with AND/OR instead of a branch that sign-random
// activations mispredict every other element. v > 0 holds exactly for b in
// [1, 0x7F800000], the smallest positive denormal up to +Inf; +0 lies below
// the range and −0, every negative and every NaN above it. In uint32
// arithmetic that is b−1 < 0x7F800000 (b = 0 wraps to the top), and the
// borrow of the 64-bit subtraction is the comparison: the difference is
// negative, its upper word all ones, exactly when it holds. Selecting v's own
// bits or zero bits reproduces the branchy loops bit for bit: NaN → +0,
// −0 → +0.
func posMask(b uint32) uint32 {
	return uint32((uint64(b-1) - 0x7F800000) >> 32)
}

// bitsOf views a float32 slice as its bit patterns, so the rectifier loops
// load and store them without a round trip through a float register.
func bitsOf(x []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(x))), len(x))
}

// selectPos returns pos when v > 0 and neg otherwise, both already computed:
// the leaky pair's select. A NaN v takes neg, as `if v > 0 … else` does.
func selectPos(v, pos, neg float32) float32 {
	m := posMask(math.Float32bits(v))
	return math.Float32frombits(math.Float32bits(pos)&m | math.Float32bits(neg)&^m)
}

// ReLU returns max(0, t) element-wise.
func ReLU(t *Tensor) *Tensor {
	out := New(t.rows, t.cols)
	ReLUInto(out, t)
	return out
}

// ReLUInto stores max(0, t) into dst; dst may alias t.
func ReLUInto(dst, t *Tensor) {
	dst.mustSameShape(t, "ReLU")
	out := bitsOf(dst.data)[:len(t.data)]
	for i, b := range bitsOf(t.data) {
		out[i] = b & posMask(b)
	}
}

// ReLUBackward returns grad masked by the forward input's sign:
// out[i] = grad[i] if input[i] > 0 else 0.
func ReLUBackward(grad, input *Tensor) *Tensor {
	out := New(grad.rows, grad.cols)
	ReLUBackwardInto(out, grad, input)
	return out
}

// ReLUBackwardInto stores the masked gradient into dst; dst may be grad but
// must not otherwise overlap it.
func ReLUBackwardInto(dst, grad, input *Tensor) {
	grad.mustSameShape(input, "ReLUBackward")
	dst.mustSameShape(grad, "ReLUBackward")
	reluMaskKernel(dst.data, grad.data, input.data)
}

// ReLUBackwardSumRowsInto is ReLUBackwardInto(dst, grad, out) followed by
// SumRowsInto(sum, dst), in one pass over the rows: each row is masked and
// then added into sum while it is in cache, rows ascending from a cleared
// sum, as SumRowsInto adds them. A nil sum skips the sum. dst may be grad but
// must not otherwise overlap it, and sum must not overlap either.
func ReLUBackwardSumRowsInto(dst, sum, grad, out *Tensor) {
	grad.mustSameShape(out, "ReLUBackward")
	dst.mustSameShape(grad, "ReLUBackward")
	if sum == nil {
		reluMaskKernel(dst.data, grad.data, out.data)
		return
	}
	if sum.rows != 1 || sum.cols != grad.cols {
		panic(fmt.Sprintf("tensor: ReLUBackwardSumRows %dx%d sum of %dx%d", sum.rows, sum.cols, grad.rows, grad.cols))
	}
	sum.Zero()
	for i := 0; i < grad.rows; i++ {
		row := dst.Row(i)
		reluMaskKernel(row, grad.Row(i), out.Row(i))
		addKernel(sum.data, row)
	}
}

// AddBiasReLUInto stores max(0, t + bias) into dst, the 1xC row vector bias
// broadcast over every row — the fused forward of the dense-layer tail,
// saving the whole-tensor pre-activation temporary. dst may be t but must
// not otherwise overlap it. Bit-compatible with AddRowVector followed by
// ReLU: the add happens first, then the max, per element.
func AddBiasReLUInto(dst, t, bias *Tensor) {
	if bias.rows != 1 || bias.cols != t.cols {
		panic(fmt.Sprintf("tensor: AddBiasReLU %dx%d bias for %dx%d", bias.rows, bias.cols, t.rows, t.cols))
	}
	dst.mustSameShape(t, "AddBiasReLU")
	for i := 0; i < t.rows; i++ {
		biasReLUKernel(dst.Row(i), t.Row(i), bias.data)
	}
}

// LeakyReLU returns t with negative entries scaled by slope.
func LeakyReLU(t *Tensor, slope float32) *Tensor {
	out := New(t.rows, t.cols)
	LeakyReLUInto(out, t, slope)
	return out
}

// LeakyReLUInto stores the leaky rectification of t into dst; dst may alias t.
func LeakyReLUInto(dst, t *Tensor, slope float32) {
	dst.mustSameShape(t, "LeakyReLU")
	out := dst.data[:len(t.data)]
	for i, v := range t.data {
		out[i] = selectPos(v, v, v*slope)
	}
}

// LeakyReLUBackward masks grad by the forward input, scaling negatives by slope.
func LeakyReLUBackward(grad, input *Tensor, slope float32) *Tensor {
	out := New(grad.rows, grad.cols)
	LeakyReLUBackwardInto(out, grad, input, slope)
	return out
}

// LeakyReLUBackwardInto stores the slope-masked gradient into dst; dst may
// alias grad.
func LeakyReLUBackwardInto(dst, grad, input *Tensor, slope float32) {
	grad.mustSameShape(input, "LeakyReLUBackward")
	dst.mustSameShape(grad, "LeakyReLUBackward")
	g, out := grad.data[:len(input.data)], dst.data[:len(input.data)]
	for i, v := range input.data {
		out[i] = selectPos(v, g[i], g[i]*slope)
	}
}

// Dropout zeroes elements of t with probability p using rng, scaling the
// survivors by 1/(1-p) (inverted dropout). It returns the output and the mask
// of kept positions (1 or 0) needed by the backward pass.
func Dropout(t *Tensor, p float32, rng *RNG) (out, mask *Tensor) {
	out = New(t.rows, t.cols)
	mask = New(t.rows, t.cols)
	DropoutInto(out, mask, t, p, rng)
	return out, mask
}

// DropoutInto applies inverted dropout into preallocated, zeroed out and mask
// tensors (the destinations a pooled allocator hands back). Neither may alias
// t. The RNG consumption order is identical to Dropout.
func DropoutInto(out, mask, t *Tensor, p float32, rng *RNG) {
	out.mustSameShape(t, "Dropout")
	mask.mustSameShape(t, "Dropout")
	if p <= 0 {
		out.CopyFrom(t)
		mask.Fill(1)
		return
	}
	scale := 1 / (1 - p)
	for i, v := range t.data {
		if rng.Float32() >= p {
			mask.data[i] = scale
			out.data[i] = v * scale
		}
	}
}
