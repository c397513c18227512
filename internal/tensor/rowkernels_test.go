package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The row-kernel tests hold whatever the kernels are bound to (assembly on an
// amd64 host with AVX) to the portable twins, bit for bit, in every binding
// the host can take (inKernelModes: the AVX-512 strips, the AVX bodies alone,
// the twins). Elsewhere the kernels are the twins and the comparisons are
// trivially true; the contract tests (guard band, panics, aliasing) still
// bite.

// inKernelModes runs f once in every binding the row kernels can take on
// this host, as a subtest named after it (KernelModes: "avx512", "avx",
// "twins"), and restores the binding when f has run in each.
func inKernelModes(t *testing.T, f func(t *testing.T)) {
	for _, m := range KernelModes() {
		restore := SetKernelMode(m)
		t.Run(m, f)
		restore()
	}
}

const (
	rowMaxLen  = 70 // lengths 0..70 cover 32-, 16-, 8- and 4-wide and scalar tails together
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
	inKernelModes(t, func(t *testing.T) {
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
	})
}

func TestRowKernelsAccumulateRowsMatchesTwin(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(73)
		const srcRows = 5
		for _, class := range rowValueClasses {
			for n := 0; n <= rowMaxLen; n++ {
				for off := 0; off <= rowMaxOff; off++ {
					// The source rows start at an unrelated offset and, for some
					// lengths, sit further apart than the destination is wide.
					sOff, stride := (3*off+n)%(rowMaxOff+1), n+off%3
					src := make([]float32, sOff+srcRows*stride+n)
					for i := range src {
						src[i] = rowValue(class, rng)
					}
					src = src[sOff:]
					dBack := rowBuf(class, rng)
					for _, zero := range []bool{false, true} {
						// Every combination of a nil or listed index and a nil or
						// listed coefficient, over term counts 0..5.
						for v := 0; v < 4; v++ {
							terms := (n + off + v) % 6
							var idx []int32
							if v&1 == 1 {
								idx = make([]int32, terms)
								for t := range idx {
									idx[t] = int32(rng.Intn(srcRows))
								}
							}
							var c []float32
							if v&2 == 2 {
								c = make([]float32, terms)
								for t := range c {
									c[t] = rowValue(class, rng)
								}
							}
							what := fmt.Sprintf("%s n=%d dst+%d src+%d stride=%d zero=%v terms=%d idx=%v c=%v",
								class, n, off, sOff, stride, zero, terms, idx != nil, c != nil)
							got, want := slices.Clone(dBack), slices.Clone(dBack)
							accRowsKernel(rowAt(got, off, n), src, stride, idx, c, terms, zero)
							accRowsGo(rowAt(want, off, n), src, stride, idx, c, terms, zero)
							checkRow(t, "accRows "+what, got, want)

							// The kernel is terms Axpy steps over one row, the first
							// onto a cleared row when zero is set.
							steps := slices.Clone(dBack)
							if zero {
								clear(rowAt(steps, off, n))
							}
							for t := 0; t < terms; t++ {
								r, a := t, float32(1)
								if idx != nil {
									r = int(idx[t])
								}
								if c != nil {
									a = c[t]
								}
								axpyGo(rowAt(steps, off, n), a, src[r*stride:][:n])
							}
							checkRow(t, "accRows vs Axpy steps "+what, got, steps)
						}
					}
				}
			}
		}
	})
}

// tileWidths and tileTerms are what the four-row tile is compared over: every
// width up to 70 (16-wide strips with 8-, 4- and 1-wide tails, and two to
// four strips), and every term count up to 130 (past two k-blocks), with
// kBlock ± 1 at the widths around a strip boundary taken in full.
const tileWidths, tileTerms = 70, 130

var tileEdgeWidths = []int{15, 16, 17, 31, 32, 33, 64}

// TestRowKernelsAccRows4MatchesTwin holds accRows4Kernel to accRows4Go, bit
// for bit, and both to four accRowsGo calls, one per destination row. The
// four rows sit a guard band apart, and the coefficients are read in both
// layouts the GEMMs use: four rows of a matrix (row stride a row's length,
// term stride 1) and four adjacent columns of one (row stride 1, term stride
// its row length).
func TestRowKernelsAccRows4MatchesTwin(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(89)
		check := func(class string, w, n int, columns, zero bool) {
			t.Helper()
			off := rng.Intn(rowMaxOff + 1)
			ds := w + rowGuard
			dBack := make([]float32, rowGuard+off+3*ds+w+rowGuard)
			for i := range dBack {
				dBack[i] = rowValue(class, rng)
			}
			ss := w + rng.Intn(3)
			src := make([]float32, rng.Intn(rowMaxOff+1)+n*ss+w)
			for i := range src {
				src[i] = rowValue(class, rng)
			}
			src = src[len(src)-n*ss-w:]
			cr, ct := n+rng.Intn(3), 1
			if columns {
				cr, ct = 1, 4+rng.Intn(3)
			}
			c := make([]float32, 3*cr+n*ct+1)
			for i := range c {
				c[i] = rowValue(class, rng)
			}
			what := fmt.Sprintf("%s w=%d n=%d dst+%d ss=%d cr=%d ct=%d zero=%v", class, w, n, off, ss, cr, ct, zero)

			lo := rowGuard + off
			got, want := slices.Clone(dBack), slices.Clone(dBack)
			accRows4Kernel(got[lo:], ds, w, src, ss, c, cr, ct, n, zero)
			accRows4Go(want[lo:], ds, w, src, ss, c, cr, ct, n, zero)
			checkRow(t, "accRows4 "+what, got, want)

			rows := slices.Clone(dBack)
			cRow := make([]float32, n)
			for r := 0; r < 4; r++ {
				for k := range cRow {
					cRow[k] = c[r*cr+k*ct]
				}
				accRowsGo(rows[lo+r*ds:][:w], src, ss, nil, cRow, n, zero)
			}
			checkRow(t, "accRows4 vs four accRows "+what, got, rows)
		}
		step := 0
		for _, class := range rowValueClasses {
			for w := 0; w <= tileWidths; w++ {
				for _, columns := range []bool{false, true} {
					for _, zero := range []bool{false, true} {
						check(class, w, step%(tileTerms+1), columns, zero)
						step += 7 // coprime to 131: each class walks every term count
					}
				}
			}
		}
		for _, w := range tileEdgeWidths {
			for _, n := range []int{kBlock - 1, kBlock, kBlock + 1} {
				for _, columns := range []bool{false, true} {
					for _, zero := range []bool{false, true} {
						check("mixed", w, n, columns, zero)
					}
				}
			}
		}
	})
}

// TestRowKernelsAnyZeroMatchesTwin holds anyZeroKernel to anyZeroGo over
// every width up to 70 and row counts up to 64 (the TA tile's four-column
// groups over a k-block), rows packed and a gap apart. The rows hold no
// zero but NaN, ±Inf and subnormals, every gap and both guard bands hold ±0,
// which must not be seen, and then a lone ±0 is planted at every position
// (a sample of them for the larger shapes), which must.
func TestRowKernelsAnyZeroMatchesTwin(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(97)
		nonZero := func() float32 {
			for {
				v := rowValue(rowValueClasses[rng.Intn(len(rowValueClasses))], rng)
				if v != 0 {
					return v
				}
			}
		}
		negZero := float32(math.Copysign(0, -1))
		for w := 0; w <= tileWidths; w++ {
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64} {
				for _, gap := range []int{0, 3} {
					stride := w + gap
					off := rowGuard + rng.Intn(rowMaxOff+1)
					back := make([]float32, off+rows*stride+rowGuard)
					for i := range back {
						back[i] = negZero * float32(rng.Intn(2)) // ±0 wherever no row is
					}
					var cells []int
					for r := 0; r < rows; r++ {
						for j := 0; j < w; j++ {
							p := off + r*stride + j
							back[p] = nonZero()
							cells = append(cells, p)
						}
					}
					if len(cells) > 256 {
						sample := make([]int, 64)
						for i, q := range rng.Perm(len(cells))[:64] {
							sample[i] = cells[q]
						}
						cells = sample
					}
					what := fmt.Sprintf("w=%d rows=%d stride=%d", w, rows, stride)
					a := back[off:]
					if got, want := anyZeroKernel(a, rows, w, stride), anyZeroGo(a, rows, w, stride); got || want {
						t.Fatalf("%s, no zero: kernel %v, twin %v", what, got, want)
					}
					for _, p := range cells {
						v := back[p]
						back[p] = negZero * float32(rng.Intn(2))
						if got, want := anyZeroKernel(a, rows, w, stride), anyZeroGo(a, rows, w, stride); !got || !want {
							t.Fatalf("%s, zero at %d: kernel %v, twin %v", what, p-off, got, want)
						}
						back[p] = v
					}
				}
			}
		}
	})
}

// TestRowKernelsScaledScatterAddMatchesEdgeLoop holds ScaledScatterAdd and
// ScaledScatterAddEdgewise to one Axpy (AddTo without coefficients) per edge
// in ascending e, bit for bit, with runs of one output row of every length,
// nil indices and nil coefficients, over every value class and widths the
// edgewise kernel takes and does not; and both to the same panics.
func TestRowKernelsScaledScatterAddMatchesEdgeLoop(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(83)
		for _, class := range rowValueClasses {
			for _, cols := range []int{0, 1, 5, 8, 16, 32, 37, 64} {
				for v := 0; v < 8; v++ {
					const inRows, outRows = 9, 7
					n := 1 + rng.Intn(inRows)
					var oi, ii []int32
					if v&1 == 1 {
						// Sorted destinations give runs; the unsorted tail does not.
						oi = make([]int32, n)
						for e := range oi {
							oi[e] = int32(rng.Intn(outRows))
						}
						slices.Sort(oi[:n/2])
					} else {
						n = min(n, outRows)
					}
					if v&2 == 2 {
						ii = make([]int32, n)
						for e := range ii {
							ii[e] = int32(rng.Intn(inRows))
						}
					}
					var c []float32
					if v&4 == 4 {
						c = make([]float32, n)
						for e := range c {
							c[e] = rowValue(class, rng)
						}
					}
					in, out := New(inRows, cols), New(outRows, cols)
					for _, x := range []*Tensor{in, out} {
						for i := range x.data {
							x.data[i] = rowValue(class, rng)
						}
					}
					want := out.Clone()
					for e := 0; e < n; e++ {
						o, i := e, e
						if oi != nil {
							o = int(oi[e])
						}
						if ii != nil {
							i = int(ii[e])
						}
						if c == nil {
							addGo(want.Row(o), in.Row(i))
						} else {
							axpyGo(want.Row(o), c[e], in.Row(i))
						}
					}
					what := fmt.Sprintf("%s cols=%d oi=%v ii=%v c=%v n=%d", class, cols, oi, ii, c != nil, n)
					edgewise := out.Clone()
					ScaledScatterAdd(out, oi, in, ii, c, n)
					checkRow(t, what, out.data, want.data)
					ScaledScatterAddEdgewise(edgewise, oi, in, ii, c, n)
					checkRow(t, "edgewise "+what, edgewise.data, want.data)
				}
			}
		}
		for _, cols := range []int{2, 8} {
			for k, scatter := range []func(*Tensor, []int32, *Tensor, []int32, []float32, int){ScaledScatterAdd, ScaledScatterAddEdgewise} {
				in, out := New(3, cols), New(2, cols)
				in.Fill(1)
				mustPanic(t, "tensor: ", func() { scatter(out, []int32{0, 2}, in, nil, nil, 2) })
				mustPanic(t, "tensor: ", func() { scatter(out, []int32{0, 1}, in, []int32{0, 3}, nil, 2) })
				mustPanic(t, "tensor: ", func() { scatter(out, nil, in, []int32{-1}, nil, 1) })
				mustPanic(t, "tensor: ", func() { scatter(out, nil, in, nil, nil, 3) })
				mustPanic(t, "tensor: ", func() { scatter(out, nil, in, nil, []float32{1}, 2) })
				mustPanic(t, "tensor: ", func() { scatter(New(2, cols+8), nil, in, nil, nil, 1) })
				mustPanic(t, "aliases", func() { scatter(in.RowSlice(0, 2), nil, in, nil, nil, 1) })
				before := out.Clone()
				mustPanic(t, "tensor: ", func() { scatter(out, []int32{0, 1, 5}, in, nil, nil, 3) })
				if k == 1 && cols%8 == 0 && bitsEqual(out.data, before.data) >= 0 {
					t.Fatal("edgewise scatter stored before it panicked on a bad index")
				}
			}
		}
	})
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
	inKernelModes(t, func(t *testing.T) {
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
	})
}

// TestRowKernelsRowOpsMatchTwin holds biasReLUKernel, reluMaskKernel and
// scaleKernel to their twins, bit for bit, over every length up to 70, every
// value class (±0, ±Inf, NaN and subnormals planted), destination and operand
// offsets, a guard band either side of the destination, and the destination
// being the operand it may be.
func TestRowKernelsRowOpsMatchTwin(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(101)
		for _, class := range rowValueClasses {
			for n := 0; n <= rowMaxLen; n++ {
				for off := 0; off <= rowMaxOff; off++ {
					dBack := rowBuf(class, rng)
					x := rowAt(rowBuf(class, rng), (off+3)%(rowMaxOff+1), n)
					y := rowAt(rowBuf(class, rng), (off+5)%(rowMaxOff+1), n)
					a := rowValue(class, rng)
					what := fmt.Sprintf("%s n=%d dst+%d", class, n, off)

					got, want := slices.Clone(dBack), slices.Clone(dBack)
					biasReLUKernel(rowAt(got, off, n), x, y)
					biasReLUGo(rowAt(want, off, n), x, y)
					checkRow(t, "biasReLU "+what, got, want)
					got, want = slices.Clone(dBack), slices.Clone(dBack)
					biasReLUKernel(rowAt(got, off, n), rowAt(got, off, n), y)
					biasReLUGo(rowAt(want, off, n), rowAt(want, off, n), y)
					checkRow(t, "biasReLU in place "+what, got, want)

					got, want = slices.Clone(dBack), slices.Clone(dBack)
					reluMaskKernel(rowAt(got, off, n), x, y)
					reluMaskGo(rowAt(want, off, n), x, y)
					checkRow(t, "reluMask "+what, got, want)
					got, want = slices.Clone(dBack), slices.Clone(dBack)
					reluMaskKernel(rowAt(got, off, n), rowAt(got, off, n), y)
					reluMaskGo(rowAt(want, off, n), rowAt(want, off, n), y)
					checkRow(t, "reluMask in place "+what, got, want)

					got, want = slices.Clone(dBack), slices.Clone(dBack)
					scaleKernel(rowAt(got, off, n), a, x)
					scaleGo(rowAt(want, off, n), a, x)
					checkRow(t, "scale "+what, got, want)
					got, want = slices.Clone(dBack), slices.Clone(dBack)
					scaleKernel(rowAt(got, off, n), a, rowAt(got, off, n))
					scaleGo(rowAt(want, off, n), a, rowAt(want, off, n))
					checkRow(t, "scale in place "+what, got, want)
				}
			}
		}
	})
}

// TestRowKernelsScatterEdgesMatchesTwin holds scatterEdgesKernel to
// scatterEdgesGo, bit for bit, and both to one axpyGo per edge in ascending
// e, over every width the kernel takes up to 72 (one to nine 8-float strips:
// 32-, 16- and 8-wide tails), every value class, nil and listed indices and
// coefficients, and output rows repeated by consecutive edges. Edges write
// only even rows, so every odd row of the output and a guard band before and
// after it must come out untouched.
func TestRowKernelsScatterEdgesMatchesTwin(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(103)
		const inRows, outRows = 7, 9
		for _, class := range rowValueClasses {
			for cols := 0; cols <= 72; cols += 8 {
				for v := 0; v < 8; v++ {
					n := rng.Intn(12)
					var oi, ii []int32
					if v&2 == 0 {
						n = min(n, inRows)
					}
					if v&1 == 1 {
						oi = make([]int32, n)
						for e := range oi {
							oi[e] = int32(2 * rng.Intn((outRows+1)/2))
							if e > 0 && rng.Intn(3) == 0 {
								oi[e] = oi[e-1]
							}
						}
					} else {
						n = min(n, 1) // the identity writes row e: only row 0 is even and first
					}
					if v&2 == 2 {
						ii = make([]int32, n)
						for e := range ii {
							ii[e] = int32(rng.Intn(inRows))
						}
					}
					var c []float32
					if v&4 == 4 {
						c = make([]float32, n)
						for e := range c {
							c[e] = rowValue(class, rng)
						}
					}
					in := make([]float32, inRows*cols)
					back := make([]float32, 2*rowGuard+outRows*cols)
					for _, x := range [][]float32{in, back} {
						for i := range x {
							x[i] = rowValue(class, rng)
						}
					}
					what := fmt.Sprintf("%s cols=%d oi=%v ii=%v c=%v", class, cols, oi, ii, c != nil)
					out := func(b []float32) []float32 { return b[rowGuard : rowGuard+outRows*cols] }

					got, want, steps := slices.Clone(back), slices.Clone(back), slices.Clone(back)
					scatterEdgesKernel(out(got), in, cols, oi, ii, c, n)
					scatterEdgesGo(out(want), in, cols, oi, ii, c, n)
					checkRow(t, "scatterEdges "+what, got, want)
					for e := 0; e < n; e++ {
						o, i, a := e, e, float32(1)
						if oi != nil {
							o = int(oi[e])
						}
						if ii != nil {
							i = int(ii[e])
						}
						if c != nil {
							a = c[e]
						}
						axpyGo(out(steps)[o*cols:][:cols], a, in[i*cols:][:cols])
					}
					checkRow(t, "scatterEdges vs Axpy steps "+what, got, steps)
					for r := 1; r < outRows; r += 2 {
						if i := bitsEqual(out(got)[r*cols:][:cols], out(back)[r*cols:][:cols]); i >= 0 {
							t.Fatalf("%s: odd row %d written at %d", what, r, i)
						}
					}
				}
			}
		}
	})
}

// TestRowKernelsDotRowsMatchesTwin holds dotRowsKernel to its twin and to
// one Dot per row, bit for bit: every width it takes up to 72, 0–17 rows
// (two groups of eight and the single rows past them), nil and listed row
// indices with repeats, every value class, and a guard band either side of
// out. DotRows must give the same at every other width too.
func TestRowKernelsDotRowsMatchesTwin(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(107)
		const xRows = 20
		for _, class := range rowValueClasses {
			for cols := 0; cols <= 72; cols++ {
				x := make([]float32, xRows*cols)
				g := make([]float32, cols)
				for _, v := range [][]float32{x, g} {
					for i := range v {
						v[i] = rowValue(class, rng)
					}
				}
				for n := 0; n <= 17; n++ {
					for _, listed := range []bool{false, true} {
						var idx []int32
						if listed {
							idx = make([]int32, n)
							for i := range idx {
								idx[i] = int32(rng.Intn(xRows))
								if i > 0 && rng.Intn(3) == 0 {
									idx[i] = idx[i-1]
								}
							}
						}
						back := make([]float32, 2*rowGuard+n)
						for i := range back {
							back[i] = rowValue(class, rng)
						}
						out := func(b []float32) []float32 { return b[rowGuard : rowGuard+n] }
						what := fmt.Sprintf("%s cols=%d n=%d idx=%v", class, cols, n, idx)

						dots := slices.Clone(back)
						for i := range out(dots) {
							r := i
							if idx != nil {
								r = int(idx[i])
							}
							out(dots)[i] = Dot(g, x[r*cols:][:cols])
						}
						got := slices.Clone(back)
						DotRows(out(got), g, x, idx)
						checkRow(t, "DotRows vs Dot "+what, got, dots)
						if cols%8 != 0 {
							continue
						}
						got, want := slices.Clone(back), slices.Clone(back)
						dotRowsKernel(out(got), g, x, cols, idx, n)
						dotRowsGo(out(want), g, x, cols, idx, n)
						checkRow(t, "dotRows "+what, got, want)
						checkRow(t, "dotRows vs Dot "+what, got, dots)
					}
				}
			}
		}
	})
}

// TestRowKernelsAxpyRowsAndWeightedSumRows holds the two row-wise halves of
// a row dot product's backward to their loops of one Axpy per row, bit for
// bit: AxpyRows over 0–9 rows (two tiles of four and the rows past them) and
// WeightedSumRowsInto from an uncleared destination, at every width up to
// 40 and in every value class.
func TestRowKernelsAxpyRowsAndWeightedSumRows(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := NewRNG(109)
		for _, class := range rowValueClasses {
			for cols := 0; cols <= 40; cols++ {
				for rows := 0; rows <= 9; rows++ {
					fill := func(n int) []float32 {
						v := make([]float32, n)
						for i := range v {
							v[i] = rowValue(class, rng)
						}
						return v
					}
					c, v, x := fill(rows), fill(cols), FromSlice(rows, cols, fill(rows*cols))
					what := fmt.Sprintf("%s rows=%d cols=%d", class, rows, cols)

					got, want := x.Clone(), x.Clone()
					AxpyRows(got, c, v)
					for i := 0; i < rows; i++ {
						axpyGo(want.Row(i), c[i], v)
					}
					checkRow(t, "AxpyRows "+what, got.data, want.data)

					sum, loop := FromSlice(1, cols, fill(cols)), New(1, cols)
					WeightedSumRowsInto(sum, x, c)
					for i := 0; i < rows; i++ {
						axpyGo(loop.data, c[i], x.Row(i))
					}
					checkRow(t, "WeightedSumRowsInto "+what, sum.data, loop.data)
				}
			}
		}
	})
}

// TestRowKernelsDotRowsPanics: a short index, an index past x's rows and
// more rows than x holds panic before out is written.
func TestRowKernelsDotRowsPanics(t *testing.T) {
	x, g := make([]float32, 3*8), make([]float32, 8)
	for _, c := range []struct {
		name string
		idx  []int32
		n    int
	}{{"short index", []int32{0}, 2}, {"index past x", []int32{0, 3}, 2}, {"negative index", []int32{-1}, 1}, {"rows past x", nil, 4}} {
		out := []float32{7, 7, 7, 7}[:c.n]
		mustPanic(t, "tensor: DotRows", func() { DotRows(out, g, x, c.idx) })
		for _, v := range out {
			if v != 7 {
				t.Fatalf("%s: panicked after writing", c.name)
			}
		}
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
		rows := slices.Concat(x[0], x[1], x[2], x[3])
		idx := []int32{0, 1, 2, 3}
		// Coefficients small enough that dst stays finite over b.N rounds.
		const a = float32(1e-9)
		c := []float32{a, a, a, a}
		// The tile: four destination rows, each taking the four source rows.
		tile := RandNormal(4, n, 0, 1, rng).data
		c16 := slices.Concat(c, c, c, c)
		for _, k := range []struct {
			name string
			fn   func()
		}{
			{"axpy/%d/kernel", func() { axpyKernel(dst, a, x[0]) }},
			{"axpy/%d/twin", func() { axpyGo(dst, a, x[0]) }},
			{"add/%d/kernel", func() { addKernel(dst, x[0]) }},
			{"add/%d/twin", func() { addGo(dst, x[0]) }},
			{"accRows/%d/kernel", func() { accRowsKernel(dst, rows, n, idx, c, len(idx), false) }},
			{"accRows/%d/twin", func() { accRowsGo(dst, rows, n, idx, c, len(idx), false) }},
			{"accRows4/%d/kernel", func() { accRows4Kernel(tile, n, n, rows, n, c16, 4, 1, 4, false) }},
			{"accRows4/%d/twin", func() { accRows4Go(tile, n, n, rows, n, c16, 4, 1, 4, false) }},
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
// tall block of vertex rows against a narrow weight matrix (NN, forward), the
// weight gradient of the same pair (TA) and the input gradient (TB) — which
// the 256-cubed benchmarks say nothing about. The halfzero rows rectify the
// vertex rows and the gradient first, so about half of their entries are
// zero, as a ReLU output and its masked gradient are.
func BenchmarkMatMulNarrow(b *testing.B) {
	rng := NewRNG(1)
	for _, s := range [][3]int{{3000, 64, 32}, {3000, 32, 16}} {
		rows, in, out := s[0], s[1], s[2]
		for _, operands := range []string{"dense", "halfzero"} {
			x := RandNormal(rows, in, 0, 1, rng)
			w := RandNormal(in, out, 0, 1, rng)
			g := RandNormal(rows, out, 0, 1, rng)
			if operands == "halfzero" {
				x, g = ReLU(x), ReLU(g)
			}
			y, gw, gx := New(rows, out), New(in, out), New(rows, in)
			flops := int64(2 * rows * in * out)
			for _, m := range []struct {
				name string
				fn   func()
			}{
				{"NN", func() { MatMulInto(y, x, w) }},
				{"TA", func() { MatMulTAInto(gw, x, g) }},
				{"TB", func() { MatMulTBInto(gx, g, w) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/%dx%dx%d", m.name, operands, rows, in, out), func(b *testing.B) {
					b.SetBytes(flops) // MB/s reads as MFLOP/s
					for i := 0; i < b.N; i++ {
						m.fn()
					}
				})
			}
		}
	}
}
