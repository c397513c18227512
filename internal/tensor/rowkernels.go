package tensor

// Row kernels: the three inner loops the hot path has. GEMM, the
// weight-gradient GEMM, the fused aggregation and every gradient or row
// accumulation bottom out in axpy, add or axpy4 over one contiguous row.
//
// Each kernel exists twice: amd64 assembly on SSE2 (rowkernels_amd64.s) and
// the portable Go twin below, which is what every other architecture runs
// and what the tests hold the assembly to. The binding is made at compile
// time by file name (rowkernels_amd64.go / rowkernels_other.go); nothing is
// chosen at run time.
//
// The assembly vectorises across j only. Element j of dst still receives one
// product rounded to float32 and one add per term, in the order the scalar
// loop applies them, so the two forms agree to the bit — and so does any
// blocking of the loops around them that keeps the per-element term order.
//
// The twins write every product as float32(a*b). Go's spec lets a compiler
// fuse x*y + z into one instruction with a single rounding, and the arm64,
// ppc64le, s390x and riscv64 back ends do; an explicit conversion (like an
// assignment) rounds to the target type and so forbids the fusion. With it
// every architecture rounds twice per term, as MULPS/ADDPS and the scalar
// MULSS/ADDSS of the amd64 build do, and checkpoints and the bit-identity
// pins carry across architectures. FMA is ruled out in the assembly for the
// same reason.
//
// The wrappers own the length contract — the assembly trusts its arguments —
// and panic with constant strings: one compare and one call is all the
// inliner will carry into a caller's row loop.

// Axpy adds a·x[j] to dst[j] for every j < len(x), each product rounded to
// float32 before it is added. It panics, before storing anything, when dst
// is shorter than x; elements of dst past len(x) are left alone. dst and x
// may be the same slice but must not otherwise overlap.
func Axpy(dst []float32, a float32, x []float32) {
	if len(dst) < len(x) {
		panic("tensor: Axpy destination shorter than source")
	}
	axpyKernel(dst, a, x)
}

// AddTo adds x[j] to dst[j] for every j < len(x). It panics, before
// storing anything, when dst is shorter than x; elements of dst past len(x)
// are left alone. dst and x may be the same slice but must not otherwise
// overlap.
func AddTo(dst, x []float32) {
	if len(dst) < len(x) {
		panic("tensor: AddTo destination shorter than source")
	}
	addKernel(dst, x)
}

// axpy4 computes dst[j] = dst[j] + a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]
// for every j < len(dst), the sum taken left to right with every product
// rounded first: four consecutive Axpy steps in one pass over dst. All five
// slices must have the same length (it panics before storing anything
// otherwise) and dst must not overlap any b.
func axpy4(dst []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	if n := len(dst); len(b0) != n || len(b1) != n || len(b2) != n || len(b3) != n {
		panic("tensor: axpy4 rows differ in length")
	}
	axpy4Kernel(dst, a0, a1, a2, a3, b0, b1, b2, b3)
}

// axpyGo is the portable twin of axpyKernel.
func axpyGo(dst []float32, a float32, x []float32) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] += float32(a * v)
	}
}

// addGo is the portable twin of addKernel.
func addGo(dst, x []float32) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] += v
	}
}

// axpy4Go is the portable twin of axpy4Kernel.
func axpy4Go(dst []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	n := len(dst)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := range dst {
		dst[j] = dst[j] + float32(a0*b0[j]) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
	}
}
