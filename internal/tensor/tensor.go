// Package tensor provides a dense float32 matrix library used as the
// numerical substrate for NeutronStar-Go. It plays the role PyTorch's ATen
// kernels play in the original system: all GNN compute (NN layers, edge and
// vertex functions, gradient math) bottoms out in these operations.
//
// Tensors are row-major two-dimensional float32 matrices. A vector is a
// tensor with a single row or a single column. The package favours explicit
// destination arguments (Into variants) so hot paths can reuse buffers, with
// allocating convenience wrappers on top.
//
// The multiply-accumulate and accumulate loops of the hot path are three row
// kernels in rowkernels.go: SSE2 assembly on amd64, a portable Go twin
// elsewhere, bound at compile time and bit-identical to each other and to
// the scalar loops they replaced. One of them adds a list of scaled rows
// into a destination row it holds in registers; the three GEMMs and the
// aggregation of the packages above (ScaledScatterAdd) run on it, the TB
// GEMM as well: each element of a @ bᵀ is summed in its own lane from +0 in
// ascending k, as the dot loop sums it. The other two, Axpy and AddTo, serve
// the remaining row accumulations. Dot stays plain Go: its sum runs along
// the row, so vectorising it would reorder the additions.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, row-major matrix of float32 values.
// The zero value is an empty 0x0 tensor.
type Tensor struct {
	rows, cols int
	data       []float32
	// pooled tracks Pool membership so Put can detect use-after-free
	// (see pool.go): poolNone for ordinary tensors, poolLive while checked
	// out, poolFree while parked inside a bucket.
	pooled uint8
}

// New returns a zero-initialised tensor with the given shape.
// It panics if either dimension is negative.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Tensor{rows: rows, cols: cols, data: make([]float32, rows*cols)}
}

// FromSlice builds a tensor that takes ownership of data, which must have
// exactly rows*cols elements.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Tensor{rows: rows, cols: cols, data: data}
}

// FromRows builds a tensor from a slice of equal-length rows.
func FromRows(rows [][]float32) *Tensor {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	t := New(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("tensor: FromRows ragged row %d (%d vs %d)", i, len(r), c))
		}
		copy(t.Row(i), r)
	}
	return t
}

// Rows returns the number of rows.
func (t *Tensor) Rows() int { return t.rows }

// Cols returns the number of columns.
func (t *Tensor) Cols() int { return t.cols }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data exposes the backing slice in row-major order. Mutating it mutates the
// tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Bits exposes the backing slice as the elements' IEEE-754 bit patterns:
// the same storage as Data, so a write through either is seen by the other.
func (t *Tensor) Bits() []uint32 { return bitsOf(t.data) }

// At returns the element at (i, j).
func (t *Tensor) At(i, j int) float32 { return t.data[i*t.cols+j] }

// Set stores v at (i, j).
func (t *Tensor) Set(i, j int, v float32) { t.data[i*t.cols+j] = v }

// Row returns row i as a slice sharing the tensor's storage.
func (t *Tensor) Row(i int) []float32 { return t.data[i*t.cols : (i+1)*t.cols] }

// RowSlice returns rows [lo, hi) as a tensor sharing storage with t.
func (t *Tensor) RowSlice(lo, hi int) *Tensor {
	if lo < 0 || hi > t.rows || lo > hi {
		panic(fmt.Sprintf("tensor: RowSlice [%d,%d) of %d rows", lo, hi, t.rows))
	}
	return &Tensor{rows: hi - lo, cols: t.cols, data: t.data[lo*t.cols : hi*t.cols]}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.rows, t.cols)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's contents into t. Shapes must match.
func (t *Tensor) CopyFrom(src *Tensor) {
	t.mustSameShape(src, "CopyFrom")
	copy(t.data, src.data)
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	clear(t.data)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool { return t.rows == o.rows && t.cols == o.cols }

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, t.rows, t.cols, o.rows, o.cols))
	}
}

// Transpose returns a new tensor that is the transpose of t.
func (t *Tensor) Transpose() *Tensor {
	out := New(t.cols, t.rows)
	// Blocked transpose for cache friendliness on large matrices.
	const b = 32
	for i0 := 0; i0 < t.rows; i0 += b {
		iMax := min(i0+b, t.rows)
		for j0 := 0; j0 < t.cols; j0 += b {
			jMax := min(j0+b, t.cols)
			for i := i0; i < iMax; i++ {
				for j := j0; j < jMax; j++ {
					out.data[j*t.rows+i] = t.data[i*t.cols+j]
				}
			}
		}
	}
	return out
}

// Equal reports exact element-wise equality of shape and contents.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if v != o.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether all elements differ by at most tol and shapes match.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(float64(v-o.data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference.
// Shapes must match.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	t.mustSameShape(o, "MaxAbsDiff")
	var m float64
	for i, v := range t.data {
		d := math.Abs(float64(v - o.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	if t.rows*t.cols > 64 {
		return fmt.Sprintf("Tensor(%dx%d)", t.rows, t.cols)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor(%dx%d)[", t.rows, t.cols)
	for i := 0; i < t.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < t.cols; j++ {
			if j > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(&sb, "%.4g", t.At(i, j))
		}
	}
	sb.WriteString("]")
	return sb.String()
}

// Bytes returns the in-memory size of the tensor payload in bytes. This is
// what the communication layer charges when a tensor crosses workers.
func (t *Tensor) Bytes() int { return 4 * len(t.data) }
