package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The row-kernel tests hold whatever axpyKernel / addKernel / axpy4Kernel are
// bound to (SSE2 assembly on amd64) to the portable twins, bit for bit. On
// other architectures the kernels are the twins and the comparisons are
// trivially true; the contract tests (guard band, panics, aliasing) still
// bite.

const (
	rowMaxLen  = 67 // lengths 0..67 cover 16-wide, 4-wide and scalar tails together
	rowMaxOff  = 7  // start offsets, in floats, into the backing array
	rowGuard   = 8  // untouched floats required either side of dst
	rowBacking = rowGuard + rowMaxOff + rowMaxLen + rowGuard
)

// rowValueClasses name the generators the kernels are compared on.
var rowValueClasses = []string{"random", "zeros", "inf", "nan", "denormal", "mixed"}

// rowValue draws one float32 of the given class.
func rowValue(class string, rng *RNG) float32 {
	switch class {
	case "zeros":
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return float32(math.Copysign(0, -1))
		}
	case "inf":
		switch rng.Intn(4) {
		case 0:
			return float32(math.Inf(1))
		case 1:
			return float32(math.Inf(-1))
		}
	case "nan":
		// The NaN this machine generates (Inf-Inf, 0*Inf), so every NaN in a
		// run has one bit pattern. Which payload survives when two different
		// NaNs meet is not pinned: Go does not define it for the scalar loop
		// either (the compiler picks the operand order per expression).
		if rng.Intn(3) == 0 {
			inf := float32(math.Inf(1))
			return inf - inf
		}
	case "denormal":
		// Subnormal operands, and normal ones small enough that products
		// and sums land in the subnormal range.
		if rng.Intn(2) == 0 {
			return math.Float32frombits(uint32(rng.Intn(2))<<31 | uint32(1+rng.Intn(0x7fffff)))
		}
		return float32(rng.NormFloat64()) * 1e-38
	case "mixed":
		return rowValue(rowValueClasses[rng.Intn(len(rowValueClasses)-1)], rng)
	}
	return float32(rng.NormFloat64())
}

// rowBuf is a backing array filled with class values.
func rowBuf(class string, rng *RNG) []float32 {
	backing := make([]float32, rowBacking)
	for i := range backing {
		backing[i] = rowValue(class, rng)
	}
	return backing
}

// rowAt is the n-float window starting off floats past the guard band of a
// backing array (or of a copy of one).
func rowAt(backing []float32, off, n int) []float32 {
	lo := rowGuard + off
	return backing[lo : lo+n : lo+n]
}

// bitsEqual returns the first index at which a and b differ in bit pattern
// (NaN payloads included), or -1.
func bitsEqual(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkRow compares two whole backing arrays: inside the window that is the
// kernel's arithmetic, outside it the guard band.
func checkRow(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if i := bitsEqual(got, want); i >= 0 {
		t.Fatalf("%s: backing[%d] = %v (%#x), twin %v (%#x)", what, i,
			got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

func TestRowKernelsAxpyAndAddMatchTwin(t *testing.T) {
	rng := NewRNG(71)
	for _, class := range rowValueClasses {
		for n := 0; n <= rowMaxLen; n++ {
			for dOff := 0; dOff <= rowMaxOff; dOff++ {
				for xOff := 0; xOff <= rowMaxOff; xOff++ {
					dBack := rowBuf(class, rng)
					x := rowAt(rowBuf(class, rng), xOff, n)
					a := rowValue(class, rng)
					what := fmt.Sprintf("%s n=%d dst+%d x+%d", class, n, dOff, xOff)

					got, want := slices.Clone(dBack), slices.Clone(dBack)
					axpyKernel(rowAt(got, dOff, n), a, x)
					axpyGo(rowAt(want, dOff, n), a, x)
					checkRow(t, "axpy "+what, got, want)

					got, want = slices.Clone(dBack), slices.Clone(dBack)
					addKernel(rowAt(got, dOff, n), x)
					addGo(rowAt(want, dOff, n), x)
					checkRow(t, "add "+what, got, want)
				}
			}
		}
	}
}

func TestRowKernelsAxpy4MatchesTwin(t *testing.T) {
	rng := NewRNG(73)
	for _, class := range rowValueClasses {
		for n := 0; n <= rowMaxLen; n++ {
			// Every start offset for each of the five operands in turn; the
			// other four sit at unrelated offsets.
			for moved := 0; moved < 5; moved++ {
				for off := 0; off <= rowMaxOff; off++ {
					var offs [5]int
					for p := range offs {
						offs[p] = (3*p + moved + 1) % (rowMaxOff + 1)
					}
					offs[moved] = off
					dBack := rowBuf(class, rng)
					var b [4][]float32
					var a [4]float32
					for p := range b {
						b[p] = rowAt(rowBuf(class, rng), offs[p+1], n)
						a[p] = rowValue(class, rng)
					}
					got, want := slices.Clone(dBack), slices.Clone(dBack)
					axpy4Kernel(rowAt(got, offs[0], n), a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
					axpy4Go(rowAt(want, offs[0], n), a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3])
					checkRow(t, fmt.Sprintf("axpy4 %s n=%d offsets %v", class, n, offs), got, want)

					// axpy4 is four axpy steps in one pass.
					steps := slices.Clone(dBack)
					for p := range b {
						axpyGo(rowAt(steps, offs[0], n), a[p], b[p])
					}
					checkRow(t, fmt.Sprintf("axpy4 vs 4 x axpy %s n=%d", class, n), got, steps)
				}
			}
		}
	}
}

// TestRowKernelsShortDestinationPanics: the wrappers own the length contract
// and must refuse before the first store.
func TestRowKernelsShortDestinationPanics(t *testing.T) {
	fresh := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(i + 1)
		}
		return s
	}
	for _, n := range []int{1, 4, 5, 16, 21} {
		x := fresh(n)
		for _, c := range []struct {
			name string
			call func(dst []float32)
		}{
			{"Axpy", func(dst []float32) { Axpy(dst, 2, x) }},
			{"AddTo", func(dst []float32) { AddTo(dst, x) }},
			{"axpy4 short dst", func(dst []float32) { axpy4(dst, 1, 2, 3, 4, x, x, x, x) }},
			{"axpy4 short b0", func(dst []float32) { axpy4(x, 1, 2, 3, 4, dst, fresh(n), fresh(n), fresh(n)) }},
			{"axpy4 short b1", func(dst []float32) { axpy4(x, 1, 2, 3, 4, fresh(n), dst, fresh(n), fresh(n)) }},
			{"axpy4 short b2", func(dst []float32) { axpy4(x, 1, 2, 3, 4, fresh(n), fresh(n), dst, fresh(n)) }},
			{"axpy4 short b3", func(dst []float32) { axpy4(x, 1, 2, 3, 4, fresh(n), fresh(n), fresh(n), dst) }},
		} {
			short, xBefore := fresh(n-1), slices.Clone(x)
			before := slices.Clone(short)
			mustPanic(t, "tensor: ", func() { c.call(short) })
			if bitsEqual(short, before) >= 0 || bitsEqual(x, xBefore) >= 0 {
				t.Fatalf("%s n=%d: panicked after writing", c.name, n)
			}
		}
	}
	// A longer destination is allowed and its surplus is left alone.
	dst, x := fresh(9), fresh(5)
	Axpy(dst, 2, x)
	AddTo(dst, x)
	for j, v := range dst {
		want := float32(j + 1)
		if j < len(x) {
			want = 4 * float32(j+1)
		}
		if v != want {
			t.Fatalf("dst[%d] = %v, want %v", j, v, want)
		}
	}
}

// TestRowKernelsSameSlice: dst and x may be the same slice, and the result is
// the scalar loop's (every element reads itself before it is written).
func TestRowKernelsSameSlice(t *testing.T) {
	rng := NewRNG(79)
	for n := 0; n <= rowMaxLen; n++ {
		v := rowAt(rowBuf("random", rng), n%(rowMaxOff+1), n)
		a := rowValue("random", rng)

		got, want := slices.Clone(v), slices.Clone(v)
		Axpy(got, a, got)
		for j, x := range v {
			want[j] = x + float32(a*x)
		}
		checkRow(t, fmt.Sprintf("Axpy(v, a, v) n=%d", n), got, want)

		got = append(got[:0], v...)
		AddTo(got, got)
		for j, x := range v {
			want[j] = x + x
		}
		checkRow(t, fmt.Sprintf("AddTo(v, v) n=%d", n), got, want)
	}
}

var rowKernelWidths = []int{16, 32, 64} // the row widths of the benchmark's model (F 64, H 32, 16 classes)

func BenchmarkRowKernels(b *testing.B) {
	rng := NewRNG(1)
	for _, n := range rowKernelWidths {
		dst := RandNormal(1, n, 0, 1, rng).data
		var x [4][]float32
		for p := range x {
			x[p] = RandNormal(1, n, 0, 1, rng).data
		}
		// Coefficients small enough that dst stays finite over b.N rounds.
		const a = float32(1e-9)
		for _, k := range []struct {
			name string
			fn   func()
		}{
			{"axpy/%d/kernel", func() { axpyKernel(dst, a, x[0]) }},
			{"axpy/%d/twin", func() { axpyGo(dst, a, x[0]) }},
			{"add/%d/kernel", func() { addKernel(dst, x[0]) }},
			{"add/%d/twin", func() { addGo(dst, x[0]) }},
			{"axpy4/%d/kernel", func() { axpy4Kernel(dst, a, a, a, a, x[0], x[1], x[2], x[3]) }},
			{"axpy4/%d/twin", func() { axpy4Go(dst, a, a, a, a, x[0], x[1], x[2], x[3]) }},
		} {
			b.Run(fmt.Sprintf(k.name, n), func(b *testing.B) {
				b.SetBytes(int64(4 * n))
				for i := 0; i < b.N; i++ {
					k.fn()
				}
			})
		}
	}
}

// BenchmarkMatMulNarrow times the GEMM shapes a training epoch runs — a
// tall block of vertex rows against a narrow weight matrix (NN, forward) and
// the weight gradient of the same pair (TA) — which the 256-cubed benchmarks
// say nothing about.
func BenchmarkMatMulNarrow(b *testing.B) {
	rng := NewRNG(1)
	for _, s := range [][3]int{{3000, 64, 32}, {3000, 32, 16}} {
		rows, in, out := s[0], s[1], s[2]
		x := RandNormal(rows, in, 0, 1, rng)
		w := RandNormal(in, out, 0, 1, rng)
		g := RandNormal(rows, out, 0, 1, rng)
		y, gw := New(rows, out), New(in, out)
		flops := int64(2 * rows * in * out)
		b.Run(fmt.Sprintf("NN/%dx%dx%d", rows, in, out), func(b *testing.B) {
			b.SetBytes(flops) // MB/s reads as MFLOP/s
			for i := 0; i < b.N; i++ {
				MatMulInto(y, x, w)
			}
		})
		b.Run(fmt.Sprintf("TA/%dx%dx%d", rows, in, out), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				MatMulTAInto(gw, x, g)
			}
		})
	}
}
