//go:build !amd64

package tensor

// Every architecture without an assembly row kernel runs the portable twins.

// KernelModes names the one binding there is: "twins".
func KernelModes() []string { return []string{"twins"} }

// SetKernelMode accepts "twins", the binding the kernels already have.
func SetKernelMode(mode string) (restore func()) {
	if mode != "twins" {
		panic("tensor: kernel mode " + mode + " is not available")
	}
	return func() {}
}

func axpyKernel(dst []float32, a float32, x []float32) { axpyGo(dst, a, x) }

func addKernel(dst, x []float32) { addGo(dst, x) }

func accRowsKernel(dst, src []float32, stride int, idx []int32, c []float32, n int, zero bool) {
	accRowsGo(dst, src, stride, idx, c, n, zero)
}

func accRows4Kernel(dst []float32, ds, w int, src []float32, ss int, c []float32, cr, ct, n int, zero bool) {
	accRows4Go(dst, ds, w, src, ss, c, cr, ct, n, zero)
}

func anyZeroKernel(a []float32, rows, w, stride int) bool { return anyZeroGo(a, rows, w, stride) }

func scatterEdgesKernel(out, in []float32, cols int, oi, ii []int32, c []float32, n int) {
	scatterEdgesGo(out, in, cols, oi, ii, c, n)
}

func dotRowsKernel(out, g, x []float32, cols int, idx []int32, n int) {
	dotRowsGo(out, g, x, cols, idx, n)
}

func biasReLUKernel(dst, x, bias []float32) { biasReLUGo(dst, x, bias) }

func reluMaskKernel(dst, g, o []float32) { reluMaskGo(dst, g, o) }

func scaleKernel(dst []float32, a float32, x []float32) { scaleGo(dst, a, x) }

func expKernel(x []float64) (done int) { return expGo(x) }
