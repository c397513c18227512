package tensor

// The amd64 binding of the row kernels: AVX assembly in rowkernels_amd64.s.
// AVX is not part of the amd64 baseline (GOAMD64=v1), so one probe at package
// init sets useAVX, and every kernel reads it on entry: with it set the kernel
// runs its AVX body, without it it tail-jumps to its portable Go twin — the
// code every other architecture runs. A second probe sets useAVX512, which
// accRowsKernel, accRows4Kernel and scatterEdgesKernel read before their
// 512-bit strips and expKernel before its 8-lane body. The assembly trusts its arguments — the lengths are checked
// by the Go wrappers in rowkernels.go and ops.go and the row indices by the
// callers of accRowsKernel, accRows4Kernel, scatterEdgesKernel and
// dotRowsKernel, all in this package.

import "slices"

// useAVX is set when the CPU has AVX and the OS saves the YMM registers.
var useAVX = avxUsable()

// useAVX512 is set when useAVX is and the CPU has AVX-512F and the OS saves
// the opmask and ZMM registers.
var useAVX512 = useAVX && avx512Usable()

// KernelModes names the bindings the row kernels can take on this host, the
// one they start in first: "avx512" where the CPU has AVX-512, "avx" where
// it has AVX, and always "twins".
func KernelModes() []string {
	modes := []string{"twins"}
	if avxUsable() {
		modes = append([]string{"avx"}, modes...)
		if avx512Usable() {
			modes = append([]string{"avx512"}, modes...)
		}
	}
	return modes
}

// SetKernelMode binds the row kernels to mode, one of KernelModes, and
// returns the call that restores the binding it replaced: "avx" runs the AVX
// bodies without the 512-bit strips, "twins" the Go twins. It exists so that
// tests can hold what the kernels compose to its scalar loops in every
// binding; no kernel may run while it switches.
func SetKernelMode(mode string) (restore func()) {
	if !slices.Contains(KernelModes(), mode) {
		panic("tensor: kernel mode " + mode + " is not available")
	}
	avx, avx512 := useAVX, useAVX512
	useAVX, useAVX512 = mode != "twins", mode == "avx512"
	return func() { useAVX, useAVX512 = avx, avx512 }
}

// avxUsable reads CPUID leaf 1 for AVX and OSXSAVE and, when both are there,
// XCR0 for XMM and YMM state (bits 1 and 2). XGETBV faults without OSXSAVE,
// hence the order.
func avxUsable() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xcr0()&6 == 6
}

// avx512Usable reads CPUID leaf 7 for AVX-512F (EBX bit 16) and XCR0 for
// XMM, YMM, opmask and both halves of the ZMM state (bits 1, 2, 5, 6 and 7).
// It is asked only once AVX, and with it OSXSAVE, is known to be there.
func avx512Usable() bool {
	const avx512f = 1 << 16
	return cpuid7()&avx512f != 0 && xcr0()&0xe6 == 0xe6
}

// cpuid1 returns ECX of CPUID leaf 1.
func cpuid1() (ecx uint32)

// cpuid7 returns EBX of CPUID leaf 7, subleaf 0, or 0 when the CPU has no
// leaf 7.
func cpuid7() (ebx uint32)

// xcr0 returns the low half of XCR0 (XGETBV with ECX = 0).
func xcr0() (eax uint32)

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

// accRows4Kernel is accRows4Go's contract: every row and coefficient it reads
// lies inside src and c, and dst does not overlap src.
//
//go:noescape
func accRows4Kernel(dst []float32, ds, w int, src []float32, ss int, c []float32, cr, ct, n int, zero bool)

// anyZeroKernel is anyZeroGo: every row it scans lies inside a.
//
//go:noescape
func anyZeroKernel(a []float32, rows, w, stride int) bool

// scatterEdgesKernel is scatterEdgesGo's contract: cols is a multiple of 8,
// every row it names lies inside its slice and out does not overlap in.
//
//go:noescape
func scatterEdgesKernel(out, in []float32, cols int, oi, ii []int32, c []float32, n int)

// dotRowsKernel is dotRowsGo's contract with cols a multiple of 8: every row
// it reads lies inside x and out does not overlap g or x.
//
//go:noescape
func dotRowsKernel(out, g, x []float32, cols int, idx []int32, n int)

// biasReLUKernel is biasReLUGo: dst and x hold len(bias) floats.
//
//go:noescape
func biasReLUKernel(dst, x, bias []float32)

// reluMaskKernel is reluMaskGo: dst and g hold len(o) floats.
//
//go:noescape
func reluMaskKernel(dst, g, o []float32)

// scaleKernel is scaleGo: dst holds len(x) floats.
//
//go:noescape
func scaleKernel(dst []float32, a float32, x []float32)

// expKernel is expGo over whole blocks of lanes that lie in [−708, 709]: it
// stops at the first block that does not, or at a tail shorter than a block
// in the AVX body, and returns how many elements it replaced.
//
//go:noescape
func expKernel(x []float64) (done int)
