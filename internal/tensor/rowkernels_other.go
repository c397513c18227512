//go:build !amd64

package tensor

// Every architecture without an assembly row kernel runs the portable twins.

func axpyKernel(dst []float32, a float32, x []float32) { axpyGo(dst, a, x) }

func addKernel(dst, x []float32) { addGo(dst, x) }

func accRowsKernel(dst, src []float32, stride int, idx []int32, c []float32, n int, zero bool) {
	accRowsGo(dst, src, stride, idx, c, n, zero)
}
