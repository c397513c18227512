package tensor

import (
	"math"
	"testing"
)

// The five rectifier loops select on posMask instead of branching. These are
// the loops they replaced, kept here as the definition of their results.

func reluBranchy(dst, in []float32) {
	for i, v := range in {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func reluBackwardBranchy(dst, grad, in []float32) {
	for i, v := range in {
		if v > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = 0
		}
	}
}

func addBiasReLUBranchy(dst, in, bias []float32) {
	for i := range in {
		z := in[i] + bias[i%len(bias)]
		if z > 0 {
			dst[i] = z
		} else {
			dst[i] = 0
		}
	}
}

func leakyReLUBranchy(dst, in []float32, slope float32) {
	for i, v := range in {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = v * slope
		}
	}
}

func leakyReLUBackwardBranchy(dst, grad, in []float32, slope float32) {
	for i, v := range in {
		if v > 0 {
			dst[i] = grad[i]
		} else {
			dst[i] = grad[i] * slope
		}
	}
}

// signSelectValues is every float32 class a sign test can get wrong — both
// zeros, both infinities, quiet and signalling NaNs of either sign with
// several payloads, the extreme denormals and normals — followed by 10⁵
// random values, a quarter of them random bit patterns.
func signSelectValues(rng *RNG) []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7F800000, 0xFF800000, // ±Inf
		0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC12345, 0x7FFFFFFF, 0xFFFFFFFF, // quiet NaNs
		0x7F800001, 0xFF800001, 0x7FA00000, 0xFFBFFFFF, // signalling NaNs
		0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, 0x00400000, // denormals
		0x00800000, 0x80800000, // ±smallest normal
		0x7F7FFFFF, 0xFF7FFFFF, // ±MaxFloat32
		0x3F800000, 0xBF800000,
	}
	vals := make([]float32, 0, len(bits)+100000)
	for _, b := range bits {
		vals = append(vals, math.Float32frombits(b))
	}
	for i := 0; i < 100000; i++ {
		if i%4 == 0 {
			vals = append(vals, math.Float32frombits(uint32(rng.Uint64())))
		} else {
			vals = append(vals, float32(rng.NormFloat64()))
		}
	}
	return vals
}

// TestSignSelectBitIdenticalToBranchy holds ReLUInto, ReLUBackwardInto,
// AddBiasReLUInto, LeakyReLUInto and LeakyReLUBackwardInto to their `if v > 0`
// twins bit for bit (NaN payloads included), with a fresh destination and
// with the destination aliasing the input, over odd shapes, in every kernel
// binding: AddBiasReLUInto and ReLUBackwardInto run the biasReLU and
// reluMask row kernels.
func TestSignSelectBitIdenticalToBranchy(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(22)
		vals := signSelectValues(rng)
		// The second operand (gradient or bias) walks the same classes out of
		// step with the first, so every class meets every other.
		other := make([]float32, len(vals))
		for i := range other {
			other[i] = vals[(i*7+3)%len(vals)]
		}
		const slope = 0.2

		for _, posOnly := range []uint32{0x00000001, 0x7F800000, 0x3F800000} {
			if posMask(posOnly) != 0xFFFFFFFF {
				t.Fatalf("posMask(%#x) = %#x, want all ones", posOnly, posMask(posOnly))
			}
		}
		for _, notPos := range []uint32{0, 0x80000000, 0x7F800001, 0x7FFFFFFF, 0x80000001, 0xFF800000, 0xFFFFFFFF} {
			if posMask(notPos) != 0 {
				t.Fatalf("posMask(%#x) = %#x, want 0", notPos, posMask(notPos))
			}
		}

		// Shapes: one long row, odd lengths around the unroll widths, and a
		// matrix whose odd row length exercises AddBiasReLUInto's per-row slices.
		shapes := [][2]int{{1, len(vals)}, {1, 1}, {1, 3}, {1, 7}, {5, 13}, {101, 67}, {0, 9}}
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			n := rows * cols
			in := FromSlice(rows, cols, append([]float32(nil), vals[:n]...))
			grad := FromSlice(rows, cols, append([]float32(nil), other[:n]...))
			bias := FromSlice(1, cols, append([]float32(nil), other[len(other)-cols:]...))
			want := make([]float32, n)

			check := func(what string, got *Tensor) {
				t.Helper()
				if i := bitsEqual(got.data, want); i >= 0 {
					t.Fatalf("%s %dx%d: element %d = %#x, branchy %#x (input %#x, other %#x)", what, rows, cols, i,
						math.Float32bits(got.data[i]), math.Float32bits(want[i]),
						math.Float32bits(in.data[i]), math.Float32bits(grad.data[i]))
				}
			}
			// run evaluates op into a fresh destination and into one aliasing
			// the operand the contract lets it alias.
			run := func(what string, alias *Tensor, op func(dst, aliased *Tensor)) {
				t.Helper()
				dst := New(rows, cols)
				op(dst, alias)
				check(what, dst)
				inPlace := alias.Clone()
				op(inPlace, inPlace)
				check(what+" in place", inPlace)
			}

			reluBranchy(want, in.data)
			run("ReLUInto", in, func(dst, x *Tensor) { ReLUInto(dst, x) })

			reluBackwardBranchy(want, grad.data, in.data)
			run("ReLUBackwardInto", grad, func(dst, g *Tensor) { ReLUBackwardInto(dst, g, in) })

			addBiasReLUBranchy(want, in.data, bias.data)
			run("AddBiasReLUInto", in, func(dst, x *Tensor) { AddBiasReLUInto(dst, x, bias) })

			leakyReLUBranchy(want, in.data, slope)
			run("LeakyReLUInto", in, func(dst, x *Tensor) { LeakyReLUInto(dst, x, slope) })

			leakyReLUBackwardBranchy(want, grad.data, in.data, slope)
			run("LeakyReLUBackwardInto", grad, func(dst, g *Tensor) { LeakyReLUBackwardInto(dst, g, in, slope) })
		}
	})
}

// BenchmarkSignSelect times the two hot rectifier loops on sign-random data,
// the case a branch mispredicts every other element.
func BenchmarkSignSelect(b *testing.B) {
	rng := NewRNG(5)
	x := RandNormal(4096, 32, 0, 1, rng)
	g := RandNormal(4096, 32, 0, 1, rng)
	bias := RandNormal(1, 32, 0, 1, rng)
	dst := New(4096, 32)
	b.Run("AddBiasReLUInto", func(b *testing.B) {
		b.SetBytes(int64(4 * x.Len()))
		for i := 0; i < b.N; i++ {
			AddBiasReLUInto(dst, x, bias)
		}
	})
	b.Run("ReLUBackwardInto", func(b *testing.B) {
		b.SetBytes(int64(4 * x.Len()))
		for i := 0; i < b.N; i++ {
			ReLUBackwardInto(dst, g, x)
		}
	})
}
