package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"
)

// gemmParallelThreshold is the minimum number of multiply-adds before GEMM
// fans out across goroutines; below it the scheduling overhead dominates.
const gemmParallelThreshold = 1 << 16

// sharesStorage reports whether the backing arrays of a and b overlap.
// Empty tensors never overlap anything.
func sharesStorage(a, b *Tensor) bool {
	if len(a.data) == 0 || len(b.data) == 0 {
		return false
	}
	aLo := uintptr(unsafe.Pointer(unsafe.SliceData(a.data)))
	aHi := aLo + uintptr(len(a.data))*unsafe.Sizeof(float32(0))
	bLo := uintptr(unsafe.Pointer(unsafe.SliceData(b.data)))
	bHi := bLo + uintptr(len(b.data))*unsafe.Sizeof(float32(0))
	return aLo < bHi && bLo < aHi
}

// mustNotAlias panics when dst shares storage with a or b. GEMM kernels read
// operand rows while writing destination rows, so an aliased destination
// silently corrupts the product; the panic turns that corruption into an
// immediate, attributable failure.
func mustNotAlias(op string, dst, a, b *Tensor) {
	if sharesStorage(dst, a) || sharesStorage(dst, b) {
		panic(fmt.Sprintf("tensor: %s destination aliases an operand; results would be corrupted", op))
	}
}

// MatMul returns a @ b.
func MatMul(a, b *Tensor) *Tensor {
	if a.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d @ %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := New(a.rows, b.cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a @ b. dst must have shape a.rows x b.cols and
// must not alias a or b (overlapping storage panics).
func MatMulInto(dst, a, b *Tensor) { matMul("MatMulInto", dst, a, b, true) }

// MatMulAddInto computes dst += a @ b under MatMulInto's shape and aliasing
// rules: every element keeps its value and receives its k-terms after it, in
// ascending k. On a dst that is all +0 — what New, a Pool and an Arena hand
// out — it is MatMulInto bit for bit without the clearing pass; the autograd
// tape calls it on the outputs it has just allocated.
func MatMulAddInto(dst, a, b *Tensor) { matMul("MatMulAddInto", dst, a, b, false) }

func matMul(op string, dst, a, b *Tensor, zero bool) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: %s %dx%d = %dx%d @ %dx%d", op,
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	mustNotAlias(op, dst, a, b)
	if zero {
		dst.Zero()
	}
	work := a.rows * a.cols * b.cols
	if work < gemmParallelThreshold || a.rows < 2 {
		gemmRows(dst, a, b, 0, a.rows)
	} else {
		parallelRows(a.rows, func(lo, hi int) { gemmRows(dst, a, b, lo, hi) })
	}
}

// gemmRows computes rows [lo,hi) of dst = a @ b in ikj order — the inner loop
// streams over contiguous rows of b and dst — with k advancing in panels of 4:
// one axpy4 pass over the dst row consumes four rows of b.
//
// Float addition is not associative, so blocking must preserve the exact
// per-element accumulation order of the scalar kernel — dst[i][j] receives
// its k-terms in ascending k, one rounded product and one add at a time — or
// results drift between builds. axpy4 sums d + t0 + t1 + t2 + t3 left to
// right, which is that order; and the zero-skip fast path is kept exactly by
// taking the panel only when all four a-values are non-zero, falling back to
// the skipping single-row update otherwise (0*Inf and signed-zero semantics
// are therefore untouched).
func gemmRows(dst, a, b *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		k := 0
		for ; k+4 <= len(ar); k += 4 {
			a0, a1, a2, a3 := ar[k], ar[k+1], ar[k+2], ar[k+3]
			b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				axpySkipZero(dr, a0, b0)
				axpySkipZero(dr, a1, b1)
				axpySkipZero(dr, a2, b2)
				axpySkipZero(dr, a3, b3)
				continue
			}
			axpy4(dr, a0, a1, a2, a3, b0, b1, b2, b3)
		}
		for ; k < len(ar); k++ {
			axpySkipZero(dr, ar[k], b.Row(k))
		}
	}
}

// MatMulTAInto computes dst = aᵀ @ b without materialising aᵀ: a is KxM, b is
// KxN, dst MxN — the shape of weight gradients. dst must not alias a or b.
func MatMulTAInto(dst, a, b *Tensor) { matMulTA("MatMulTAInto", dst, a, b, true) }

// MatMulTAAddInto computes dst += aᵀ @ b: MatMulTAInto as MatMulAddInto is
// MatMulInto, for the tape's freshly allocated weight-gradient temporaries.
func MatMulTAAddInto(dst, a, b *Tensor) { matMulTA("MatMulTAAddInto", dst, a, b, false) }

func matMulTA(op string, dst, a, b *Tensor, zero bool) {
	if a.rows != b.rows || dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: %s %dx%d = (%dx%d)ᵀ @ %dx%d", op,
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	mustNotAlias(op, dst, a, b)
	if zero {
		dst.Zero()
	}
	m, n := a.cols, b.cols
	if a.rows*m*n < gemmParallelThreshold || m < 2 {
		matMulTARows(dst, a, b, 0, m)
	} else {
		// Parallelise over output rows (columns of a) so goroutines never
		// write the same destination row.
		parallelRows(m, func(lo, hi int) { matMulTARows(dst, a, b, lo, hi) })
	}
}

// matMulTARows computes rows [lo,hi) of dst = aᵀ @ b, blocked the way
// gemmRows is: k (the shared row index of a and b) advances in panels of 4,
// so one sweep over the small dst block consumes four rows of a and b. The
// bit-identity argument is gemmRows's: dst[i][j] still receives its k-terms
// in ascending k, one add at a time, and the panel is taken only when all
// four a-values are non-zero, otherwise the zero-skipping single-row update
// runs for that element row.
func matMulTARows(dst, a, b *Tensor, lo, hi int) {
	k := 0
	for ; k+4 <= a.rows; k += 4 {
		ar0, ar1, ar2, ar3 := a.Row(k), a.Row(k+1), a.Row(k+2), a.Row(k+3)
		b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
		for i := lo; i < hi; i++ {
			a0, a1, a2, a3 := ar0[i], ar1[i], ar2[i], ar3[i]
			dr := dst.Row(i)
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				axpySkipZero(dr, a0, b0)
				axpySkipZero(dr, a1, b1)
				axpySkipZero(dr, a2, b2)
				axpySkipZero(dr, a3, b3)
				continue
			}
			axpy4(dr, a0, a1, a2, a3, b0, b1, b2, b3)
		}
	}
	for ; k < a.rows; k++ {
		ar, br := a.Row(k), b.Row(k)
		for i := lo; i < hi; i++ {
			axpySkipZero(dst.Row(i), ar[i], br)
		}
	}
}

// axpySkipZero is dr += av * br, skipped entirely when av is zero: the
// scalar GEMM update whose 0*Inf and signed-zero behaviour blocking keeps.
func axpySkipZero(dr []float32, av float32, br []float32) {
	if av != 0 {
		Axpy(dr, av, br)
	}
}

// MatMulTBInto computes dst = a @ bᵀ without materialising bᵀ: a is MxK, b is
// NxK, dst MxN — the shape of input gradients. dst must not alias a or b.
func MatMulTBInto(dst, a, b *Tensor) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMulTBInto %dx%d = %dx%d @ (%dx%d)ᵀ",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	mustNotAlias("MatMulTBInto", dst, a, b)
	if a.rows*a.cols*b.rows < gemmParallelThreshold || a.rows < 2 {
		matMulTBRows(dst, a, b, 0, a.rows)
	} else {
		parallelRows(a.rows, func(lo, hi int) { matMulTBRows(dst, a, b, lo, hi) })
	}
}

// matMulTBRows is a dot-product kernel with the output column loop unrolled
// 4x: four independent accumulators share one streaming read of a's row.
// Each accumulator still sums its k-terms in ascending k, so per-element
// results are bit-identical to the scalar kernel.
func matMulTBRows(dst, a, b *Tensor, lo, hi int) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		j := 0
		for ; j+4 <= b.rows; j += 4 {
			b0, b1, b2, b3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
			var s0, s1, s2, s3 float32
			for k, av := range ar {
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			dr[j], dr[j+1], dr[j+2], dr[j+3] = s0, s1, s2, s3
		}
		for ; j < b.rows; j++ {
			br := b.Row(j)
			var s float32
			for k, av := range ar {
				s += av * br[k]
			}
			dr[j] = s
		}
	}
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// parallelRows splits [0, n) into contiguous chunks, one per worker, and runs
// fn(lo, hi) on each chunk concurrently.
func parallelRows(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// ParallelRows exposes the chunked parallel-for used by GEMM for callers that
// need the same work-splitting over row ranges (e.g. per-vertex graph ops).
func ParallelRows(n int, fn func(lo, hi int)) { parallelRows(n, fn) }
