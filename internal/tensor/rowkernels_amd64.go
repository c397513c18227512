package tensor

// The amd64 binding of the row kernels: SSE2 assembly in rowkernels_amd64.s.
// SSE2 is part of the amd64 baseline (GOAMD64=v1), so there is no feature
// probe. The assembly trusts its arguments — the lengths are checked by the
// Go wrappers in rowkernels.go, the only callers.

// axpyKernel adds a*x[j] to dst[j] for j < len(x); len(dst) >= len(x).
//
//go:noescape
func axpyKernel(dst []float32, a float32, x []float32)

// addKernel adds x[j] to dst[j] for j < len(x); len(dst) >= len(x).
//
//go:noescape
func addKernel(dst, x []float32)

// axpy4Kernel is dst[j] = dst[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
// for j < len(dst); every b is at least as long as dst.
//
//go:noescape
func axpy4Kernel(dst []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)
