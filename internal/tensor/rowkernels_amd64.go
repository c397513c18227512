package tensor

// The amd64 binding of the row kernels: SSE2 assembly in rowkernels_amd64.s.
// SSE2 is part of the amd64 baseline (GOAMD64=v1), so there is no feature
// probe. The assembly trusts its arguments — the lengths are checked by the
// Go wrappers in rowkernels.go and the row indices by the callers of
// accRowsKernel, all in this package.

// axpyKernel adds a*x[j] to dst[j] for j < len(x); len(dst) >= len(x).
//
//go:noescape
func axpyKernel(dst []float32, a float32, x []float32)

// addKernel adds x[j] to dst[j] for j < len(x); len(dst) >= len(x).
//
//go:noescape
func addKernel(dst, x []float32)

// accRowsKernel is accRowsGo's contract: every row it reads lies inside src
// and dst does not overlap src.
//
//go:noescape
func accRowsKernel(dst, src []float32, stride int, idx []int32, c []float32, n int, zero bool)
