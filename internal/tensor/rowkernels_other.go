//go:build !amd64

package tensor

// Every architecture without an assembly row kernel runs the portable twins.

func axpyKernel(dst []float32, a float32, x []float32) { axpyGo(dst, a, x) }

func addKernel(dst, x []float32) { addGo(dst, x) }

func axpy4Kernel(dst []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32) {
	axpy4Go(dst, a0, a1, a2, a3, b0, b1, b2, b3)
}
