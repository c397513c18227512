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
// must not alias a or b (overlapping storage panics). Every element of dst is
// written, so its prior contents never matter: it may come uncleared.
func MatMulInto(dst, a, b *Tensor) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulInto %dx%d = %dx%d @ %dx%d",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	mustNotAlias("MatMulInto", dst, a, b)
	gemm(dst, a, b, nil, false)
}

// MatMulBiasInto computes dst = a @ b + bias, rectified (max(0, ·), NaN and
// ±0 to +0) when relu is set, where the 1 x b.Cols() row vector bias is
// added to every row: the bits of MatMulInto followed by AddRowVector, or by
// AddBiasReLUInto, without a second pass over dst — each group of four rows
// takes its bias (and rectifier) as soon as its last k-block is summed, while
// the rows are still in cache. dst must not alias a, b or bias, and may come
// uncleared.
func MatMulBiasInto(dst, a, b, bias *Tensor, relu bool) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols || bias.rows != 1 || bias.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulBiasInto %dx%d = %dx%d @ %dx%d + %dx%d",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols, bias.rows, bias.cols))
	}
	mustNotAlias("MatMulBiasInto", dst, a, b)
	mustNotAlias("MatMulBiasInto", dst, bias, bias)
	gemm(dst, a, b, bias.data, relu)
}

// gemm runs gemmRows over every row of dst, split across goroutines when the
// product is large enough.
func gemm(dst, a, b *Tensor, bias []float32, relu bool) {
	if a.rows*a.cols*b.cols < gemmParallelThreshold || a.rows < 2 {
		gemmRows(dst, a, b, bias, relu, 0, a.rows)
	} else {
		parallelRows(a.rows, func(lo, hi int) { gemmRows(dst, a, b, bias, relu, lo, hi) })
	}
}

// kBlock is the most k-terms one accRowsKernel or accRows4Kernel call of the
// NN or TA GEMM takes: the compacted index and coefficient lists are stack
// arrays of this length, and a longer k runs in blocks, each continuing from
// the last.
const kBlock = 64

// gemmRows computes rows [lo,hi) of dst = a @ b in ikj order, in groups of
// four rows (fewer in the last group). For each group and k-block, every
// row's block is scanned for ±0 once. A full group with none is one
// accRows4Kernel call, the coefficients read in place from a's rows; any
// other group runs row by row through accRow, which skips the zero terms.
// With bias not nil, each finished group's rows then take bias — added with
// addKernel, or through biasReLUKernel when relu is set — the epilogue
// MatMulBiasInto promises.
func gemmRows(dst, a, b *Tensor, bias []float32, relu bool, lo, hi int) {
	var idx [kBlock]int32
	var c [kBlock]float32
	var zeros [4]bool
	k, n := a.cols, b.cols
	for i := lo; i < hi; i += 4 {
		rows := min(4, hi-i)
		for k0 := 0; k0 == 0 || k0 < k; k0 += kBlock {
			kb := min(k-k0, kBlock)
			tile := rows == 4
			for r := 0; r < rows; r++ {
				zeros[r] = hasZero(a.data[(i+r)*k+k0:][:kb])
				tile = tile && !zeros[r]
			}
			if tile {
				accRows4Kernel(dst.data[i*n:], n, n, b.data[k0*n:], n, a.data[i*k+k0:], k, 1, kb, k0 == 0)
				continue
			}
			for r := 0; r < rows; r++ {
				accRow(dst.data[(i+r)*n:][:n], a.data[(i+r)*k+k0:][:kb], zeros[r], b, k0, idx[:], c[:])
			}
		}
		if bias == nil {
			continue
		}
		for r := i; r < i+rows; r++ {
			row := dst.data[r*n:][:n]
			if relu {
				biasReLUKernel(row, row, bias)
			} else {
				addKernel(row, bias)
			}
		}
	}
}

// accRow adds ar[t]·b[k0+t,·] into dr for every t whose ar[t] is not zero,
// in ascending t, starting from +0 in the first block (k0 == 0) and from dr
// itself after it: one k-block of one row of a GEMM. zeros says whether ar
// holds a zero. A block without one goes to the kernel as it stands; any
// other goes through accNonZeros.
//
// Float addition is not associative, so this must keep the exact per-element
// accumulation order of the scalar kernel — dst[i][j] receives its k-terms in
// ascending k, one rounded product and one add at a time, starting from +0 —
// or results drift between builds. The list is in ascending k, and it leaves
// out exactly the terms the scalar kernel skips (a[i,k] == 0, so 0·Inf and
// signed-zero behaviour are untouched). The four-row tile keeps both rules,
// and the GEMMs hand it only blocks without a zero, where the scalar kernel
// skips nothing.
func accRow(dr, ar []float32, zeros bool, b *Tensor, k0 int, idx []int32, c []float32) {
	if !zeros {
		accRowsKernel(dr, b.data[k0*b.cols:], b.cols, nil, ar, len(ar), k0 == 0)
		return
	}
	accNonZeros(dr, ar, 1, b, k0, idx[:len(ar)], c)
}

// accNonZeros is accRow for coefficients a[t·step], t < len(idx), that may
// hold zeros: nonZeros lists them into idx and c, branch-free, so ReLU-sparse
// rows skip their zero terms without a mispredicted branch per term.
func accNonZeros(dr, a []float32, step int, b *Tensor, k0 int, idx []int32, c []float32) {
	n := nonZeros(idx, c, a, step, k0)
	accRowsKernel(dr, b.data, b.cols, idx[:n], c[:n], n, k0 == 0)
}

// hasZero reports whether a holds a ±0.
func hasZero(a []float32) bool { return anyZeroKernel(a, 1, len(a), 0) }

// absMask clears a float32's sign bit: b&absMask is 0 exactly when the bits b
// are ±0.
const absMask = 0x7fffffff

// nonZeros lists the non-zero entries of a[t·step], t < len(idx), in
// ascending t — t plus base in idx, the value in c — and returns how many
// there are. Every entry is written to the next free slot and the count
// advances past the non-zero ones only, so the pass has no branch to
// mispredict. Zero means ±0, the scalar GEMM's skip rule; NaN is kept. It
// stays out of line: inlined into a loop around a call, its loop's counters
// would live on the stack.
//
//go:noinline
func nonZeros(idx []int32, c, a []float32, step, base int) int {
	cb, src := bitsOf(c)[:len(idx)], bitsOf(a)
	n := 0
	for t := range idx {
		b := src[t*step]
		idx[n] = int32(base + t)
		cb[n] = b
		n += int((b&absMask + absMask) >> 31)
	}
	return n
}

// MatMulTAInto computes dst = aᵀ @ b without materialising aᵀ: a is KxM, b is
// KxN, dst MxN — the shape of weight gradients. dst must not alias a or b,
// and may come uncleared.
func MatMulTAInto(dst, a, b *Tensor) {
	if a.rows != b.rows || dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("tensor: MatMulTAInto %dx%d = (%dx%d)ᵀ @ %dx%d",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	mustNotAlias("MatMulTAInto", dst, a, b)
	m, n := a.cols, b.cols
	if a.rows*m*n < gemmParallelThreshold || m < 2 {
		matMulTARows(dst, a, b, 0, m)
	} else {
		// Parallelise over output rows (columns of a) so goroutines never
		// write the same destination row.
		parallelRows(m, func(lo, hi int) { matMulTARows(dst, a, b, lo, hi) })
	}
}

// matMulTARows computes rows [lo,hi) of dst = aᵀ @ b, k (the shared row index
// of a and b) in blocks of kBlock. Within a block, dst rows go in groups of
// four — four adjacent columns of a, a k-block of four rows of aᵀ. A group
// whose columns hold no ±0 over the block is one accRows4Kernel call, the
// coefficients read in place (row stride 1, term stride a.cols); every row of
// any other group, and of a last group of fewer than four, has its column
// listed by accNonZeros, as a row of a with a zero is in gemmRows. A block of
// a and of b is small enough to stay in cache while every dst row reads it.
func matMulTARows(dst, a, b *Tensor, lo, hi int) {
	m, n := a.cols, b.cols
	if a.rows == 0 {
		clear(dst.data[lo*n : hi*n])
		return
	}
	var idx [kBlock]int32
	var c [kBlock]float32
	for k0 := 0; k0 < a.rows; k0 += kBlock {
		kb := min(a.rows-k0, kBlock)
		blk := a.data[k0*m : (k0+kb)*m]
		for i := lo; i < hi; {
			if i+4 <= hi && !anyZeroKernel(blk[i:], kb, 4, m) {
				accRows4Kernel(dst.data[i*n:], n, n, b.data[k0*n:], n, blk[i:], 1, m, kb, k0 == 0)
				i += 4
				continue
			}
			for end := min(i+4, hi); i < end; i++ {
				accNonZeros(dst.data[i*n:(i+1)*n], blk[i:], m, b, k0, idx[:kb], c[:])
			}
		}
	}
}

// MatMulTBInto computes dst = a @ bᵀ without materialising bᵀ in the
// caller's storage: a is MxK, b is NxK, dst MxN — the shape of input
// gradients. dst must not alias a or b, and may come uncleared.
//
// bᵀ (KxN) is staged once per call in pooled scratch, and each group of four
// dst rows is one accRows4Kernel call over all K rows of it with a's four
// rows as the coefficients (each row past the last group, one accRowsKernel
// call), no term skipped: every element is the dot product Σ_k a[i,k]·b[j,k]
// summed from +0 in ascending k, one rounded product and one add at a time,
// as the scalar dot loop sums it.
func MatMulTBInto(dst, a, b *Tensor) {
	if a.cols != b.cols || dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("tensor: MatMulTBInto %dx%d = %dx%d @ (%dx%d)ᵀ",
			dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	mustNotAlias("MatMulTBInto", dst, a, b)
	k, n := b.cols, b.rows
	stage := tbStage.Get().(*[]float32)
	if cap(*stage) < k*n {
		*stage = make([]float32, k*n)
	}
	bt := (*stage)[:k*n]
	for j := 0; j < n; j++ {
		for kk, v := range b.data[j*k : (j+1)*k] {
			bt[kk*n+j] = v
		}
	}
	if a.rows*k*n < gemmParallelThreshold || a.rows < 2 {
		matMulTBRows(dst, a, bt, 0, a.rows)
	} else {
		parallelRows(a.rows, func(lo, hi int) { matMulTBRows(dst, a, bt, lo, hi) })
	}
	tbStage.Put(stage)
}

// matMulTBRows computes rows [lo,hi) of dst = a @ bᵀ from the staged bᵀ.
func matMulTBRows(dst, a *Tensor, bt []float32, lo, hi int) {
	k, n := a.cols, dst.cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		accRows4Kernel(dst.data[i*n:], n, n, bt, n, a.data[i*k:], k, 1, k, true)
	}
	for ; i < hi; i++ {
		accRowsKernel(dst.data[i*n:(i+1)*n], bt, n, nil, a.data[i*k:(i+1)*k], k, true)
	}
}

// tbStage recycles MatMulTBInto's bᵀ scratch across calls.
var tbStage = sync.Pool{New: func() any { return new([]float32) }}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i, v := range a {
		s += float32(v * b[i])
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
