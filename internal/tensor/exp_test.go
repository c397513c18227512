package tensor

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"testing"
)

// The exp tests hold expKernel to Exp, its twin, bit for bit in float64 in
// every binding; Exp to math.Exp in float32 on amd64, where math.Exp is the
// code it ports; Exp's bits to a golden hash on every architecture; and the
// chunked softmax loops to the per-segment scalar loops they replaced.

// expSpecials are the inputs at the edges of Exp's branches and of the
// kernel's range.
func expSpecials() []float64 {
	const overflow = 7.09782712893384e+02
	f32 := func(v float32) float64 { return float64(v) }
	return []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		overflow, math.Nextafter(overflow, 0), math.Nextafter(overflow, 1000),
		709, math.Nextafter(709, 1000), -708, math.Nextafter(-708, -1000),
		// k + 1023 = 0 and its neighbours: 2^k subnormal from k = −1023 on.
		-1022.5 * math.Ln2, -1023 * math.Ln2, -1023.5 * math.Ln2,
		// k < −52 − 1023 rounds to zero; k = −1075 is the last that may not.
		-1074.5 * math.Ln2, -1075 * math.Ln2, -1075.5 * math.Ln2, -1076 * math.Ln2,
		-745.1332191019411, -745.1332191019412, -746, -1e10, -math.MaxFloat64,
		math.MaxFloat64, 1e10, 1024 * math.Ln2,
		f32(math.MaxFloat32), f32(-math.MaxFloat32), f32(math.SmallestNonzeroFloat32),
		f32(-math.SmallestNonzeroFloat32), f32(math.Float32frombits(0x007fffff)),
		f32(-math.Float32frombits(0x007fffff)), f32(math.Float32frombits(0x00800000)),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
}

// expValue draws one input: the softmax range, [−4, 4], the kernel's whole
// range and past it, or a special.
func expValue(rng *RNG) float64 {
	switch rng.Intn(5) {
	case 0:
		return -30 * rng.Float64()
	case 1:
		return 8*rng.Float64() - 4
	case 2:
		return 1500*rng.Float64() - 750
	case 3:
		return float64(float32(rng.NormFloat64()))
	}
	s := expSpecials()
	return s[rng.Intn(len(s))]
}

// requireExpBits fails at the first element of got that is not Exp of the
// same element of in, NaNs compared by payload too.
func requireExpBits(t *testing.T, what string, got, in []float64) {
	t.Helper()
	for i, x := range in {
		if w := Exp(x); math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s: exp(%v) [%d] = %v (%#x), twin %v (%#x)", what, x, i,
				got[i], math.Float64bits(got[i]), w, math.Float64bits(w))
		}
	}
}

func TestExpKernelMatchesTwin(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(83)
		const guard = 8
		for n := 0; n <= rowMaxLen; n++ {
			for off := 0; off <= rowMaxOff; off++ {
				backing := make([]float64, guard+rowMaxOff+rowMaxLen+guard)
				for i := range backing {
					backing[i] = expValue(rng)
				}
				in := append([]float64(nil), backing...)
				expInPlace(backing[guard+off : guard+off+n : guard+off+n])
				for i := range backing {
					if inside := i >= guard+off && i < guard+off+n; !inside &&
						math.Float64bits(backing[i]) != math.Float64bits(in[i]) {
						t.Fatalf("n=%d off=%d: guard element %d changed", n, off, i)
					}
				}
				requireExpBits(t, fmt.Sprintf("n=%d off=%d", n, off), backing[guard+off:guard+off+n], in[guard+off:guard+off+n])
			}
		}
		// Each special in every lane of the blocks of a 32-lane group, of a
		// lone block and of a tail, among in-range values.
		const n = 4*expBlock + expBlock + 3
		for _, x := range expSpecials() {
			for lane := 0; lane < n; lane++ {
				in := make([]float64, n)
				for i := range in {
					in[i] = -30 * rng.Float64()
				}
				in[lane] = x
				got := append([]float64(nil), in...)
				expInPlace(got)
				requireExpBits(t, fmt.Sprintf("special %v in lane %d", x, lane), got, in)
			}
		}
		for range 4000 {
			in := make([]float64, expChunk)
			for i := range in {
				in[i] = expValue(rng)
			}
			got := append([]float64(nil), in...)
			expInPlace(got)
			requireExpBits(t, "random", got, in)
		}
	})
}

// TestExpTwinKeepsMathExpFloat32Bits: on amd64, math.Exp is the assembly Exp
// ports — its non-FMA path, or with FMA one that rounds the reduction and the
// polynomial fewer times. Either way, every float32 input of the softmax range
// and of [−4, 4] has the same float32 exponential, so swapping the twin in
// moves no float32 the training path stores.
func TestExpTwinKeepsMathExpFloat32Bits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Exp is another algorithm off amd64")
	}
	rng := NewRNG(89)
	check := func(x float32) {
		if got, want := float32(Exp(float64(x))), float32(math.Exp(float64(x))); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("float32(exp(%v)): twin %v (%#x), math.Exp %v (%#x)", x, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	for range 4_000_000 {
		check(-30 * rng.Float32())
		check(8*rng.Float32() - 4)
	}
	// Every float32 bit pattern of (−110, 0], stepped: below −104 the
	// float32 exponential is already 0.
	for b := uint32(0x80000000); b <= 0xC2DC0000; b += 512 {
		check(math.Float32frombits(b))
	}
	for _, x := range expSpecials() {
		check(float32(x))
	}
}

// TestExpGolden: one FNV-64a hash of Exp's float64 bits over a fixed sweep
// through every branch. The constant is the non-FMA path of math.Exp on
// amd64; compiled for any other architecture the test holds Exp to the same
// bits, which is what keeps a softmax sum — and a loss — the same everywhere.
func TestExpGolden(t *testing.T) {
	const want = 0x73340064540712d0
	h := fnv.New64a()
	var b [8]byte
	put := func(x float64) {
		u := math.Float64bits(Exp(x))
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i <= 1<<20; i++ {
		put(-760 + 1480*float64(i)/(1<<20))
	}
	for i := 0; i <= 1<<16; i++ {
		put(-4 + 8*float64(i)/(1<<16))
	}
	for _, x := range expSpecials() {
		put(x)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("Exp golden hash %#x, want %#x", got, uint64(want))
	}
}

// requireSameFloats is checkRow with every NaN equal to every other: which
// NaN a product or difference of two NaNs keeps depends on the operand order
// the compiler picks, and the loops compared here are compiled apart.
func requireSameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range got {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: [%d] = %v (%#x), loop %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// softmaxSegmentLoop is the per-segment loop SoftmaxSegments replaced, over
// Exp: the oracle of its chunking.
func softmaxSegmentLoop(p, scores []float32) {
	m := maxOf(scores)
	var sum float64
	for i, v := range scores {
		e := Exp(float64(v - m))
		p[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range p {
		p[i] *= inv
	}
}

// expSegments returns offsets for segments of every degree 0..maxDeg, shuffled,
// so that the chunks of expChunk elements end at every offset into a segment.
func expSegments(rng *RNG, maxDeg int) []int32 {
	degs := rng.Perm(maxDeg + 1)
	offsets := []int32{0}
	for _, d := range degs {
		offsets = append(offsets, offsets[len(offsets)-1]+int32(d))
	}
	return offsets
}

// scoreValue is a softmax input: a normal score, or with special set one of
// ±0, ±Inf, NaN, a float32 extreme or a subnormal.
func scoreValue(rng *RNG, special bool) float32 {
	if special && rng.Intn(6) == 0 {
		s := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
			float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32, 1e-42, -1e30, 1e30}
		return s[rng.Intn(len(s))]
	}
	return float32(3 * rng.NormFloat64())
}

func TestSoftmaxSegmentsMatchesSegmentLoop(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(97)
		for _, special := range []bool{false, true} {
			offsets := expSegments(rng, 300)
			e := int(offsets[len(offsets)-1])
			src := make([]float32, e)
			for i := range src {
				src[i] = scoreValue(rng, special)
			}
			want := make([]float32, e)
			for s := 0; s+1 < len(offsets); s++ {
				lo, hi := offsets[s], offsets[s+1]
				softmaxSegmentLoop(want[lo:hi], src[lo:hi])
			}
			got := make([]float32, e)
			SoftmaxSegments(got, src, offsets)
			requireSameFloats(t, fmt.Sprintf("special=%v", special), got, want)
			// In place, as EdgeSoftmax calls it.
			SoftmaxSegments(src, src, offsets)
			requireSameFloats(t, fmt.Sprintf("special=%v in place", special), src, want)
		}
		for _, w := range []int{0, 1, 2, 16, 255, 256, 257, 300} {
			x := New(7, w)
			for i := range x.data {
				x.data[i] = scoreValue(rng, true)
			}
			want := New(7, w)
			for i := 0; i < 7; i++ {
				softmaxSegmentLoop(want.Row(i), x.Row(i))
			}
			requireSameFloats(t, fmt.Sprintf("SoftmaxRows w=%d", w), SoftmaxRows(x).data, want.data)
		}
	})
}

// TestLossRowsMatchRowLoops: LogSoftmaxRowsInto and ExpInto, over masks and
// widths that put chunk ends everywhere in a row, against one row at a time.
func TestLossRowsMatchRowLoops(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(101)
		for _, w := range []int{0, 1, 3, 16, 41, 256, 300} {
			for _, special := range []bool{false, true} {
				rows := 61
				x := New(rows, w)
				for i := range x.data {
					x.data[i] = scoreValue(rng, special)
				}
				mask := make([]bool, rows)
				n := 0
				for i := range mask {
					if mask[i] = rng.Intn(3) != 0; mask[i] {
						n++
					}
				}
				what := fmt.Sprintf("w=%d special=%v", w, special)
				for _, m := range [][]bool{mask, nil} {
					sel := rows
					if m != nil {
						sel = n
					}
					want, k := New(sel, w), 0
					for i := 0; i < rows; i++ {
						if m != nil && !m[i] {
							continue
						}
						row, out := x.Row(i), want.Row(k)
						var sum float64
						mx := maxOf(row)
						for _, v := range row {
							sum += Exp(float64(v - mx))
						}
						lse := mx + float32(math.Log(sum))
						for j, v := range row {
							out[j] = v - lse
						}
						k++
					}
					got := New(sel, w)
					LogSoftmaxRowsInto(got, x, m)
					requireSameFloats(t, what+" log-softmax", got.data, want.data)

					// ExpInto scatters the rows back onto the selected ones.
					back, wantBack := New(rows, w), New(rows, w)
					back.Fill(-1)
					wantBack.Fill(-1)
					for i, k := 0, 0; i < rows; i++ {
						if m != nil && !m[i] {
							continue
						}
						for j, v := range got.Row(k) {
							wantBack.Row(i)[j] = float32(Exp(float64(v)))
						}
						k++
					}
					ExpInto(back, got, m)
					requireSameFloats(t, what+" exp", back.data, wantBack.data)
				}
			}
		}
	})
}

// TestSoftmaxLoopsAllocFree: the chunk buffers live on the stack. Gated
// behind NS_PERF_ALLOCS like the other alloc budgets.
func TestSoftmaxLoopsAllocFree(t *testing.T) {
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	rng := NewRNG(103)
	offsets := expSegments(rng, 300)
	p := make([]float32, offsets[len(offsets)-1])
	x, mask := RandNormal(40, 16, 0, 1, rng), make([]bool, 40)
	for i := range mask {
		mask[i] = i%3 != 0
	}
	logp := New(selected(mask, 40), 16)
	if n := testing.AllocsPerRun(20, func() {
		SoftmaxSegments(p, p, offsets)
		LogSoftmaxRowsInto(logp, x, mask)
		ExpInto(x, logp, mask)
	}); n != 0 {
		t.Fatalf("softmax loops allocated %v times per call, want 0", n)
	}
}
