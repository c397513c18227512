package tensor

import (
	"fmt"
	"math"
)

// One exponential for the whole training path. Exp is the scalar form: Go's
// amd64 math.Exp (math/exp_amd64.s, Shibata's SIMD-friendly method) as it
// runs on a CPU without FMA — a range reduction by k·ln 2 with k rounded to
// nearest even, a degree-8 Taylor polynomial on a sixteenth of the remainder,
// four doublings and a scale by 2^k. Every product is rounded on its own
// (explicit float64 conversions, so no back end may fuse it into the sum
// that follows), which gives every architecture the same bits. math.Exp does
// not: with FMA, amd64 fuses the reduction and the polynomial, and arm64
// runs a different, FMA-based algorithm. The two amd64 paths differ in the
// last float64 bit of some inputs but not in float32 (TestExpTwinKeepsMathExpFloat32Bits).
//
// expKernel is the same arithmetic across lanes (rowkernels_amd64.s): eight
// float64s in a ZMM register with AVX-512, four in YMM with AVX — VMULPD,
// VADDPD and VSUBPD only, the lanes' k converted and scaled into 2^k in the
// integer unit. It runs a block only when every lane lies in [−708, 709],
// where k + 1023 is a normal exponent, and returns at the first block that
// does not (NaN included); expInPlace hands that block to Exp and calls the
// kernel again for the rest. The softmax loops below and the loss head
// exponentiate expChunk elements per call into a stack buffer, across segment
// and row boundaries, so a two-edge segment or a sixteen-class row costs no
// call of its own and nothing is allocated.

// expChunk is how many exponentials a softmax loop takes per kernel call.
const expChunk = 256

// expBlock is the widest block of lanes the kernel can stop at.
const expBlock = 8

// Exp returns e^x, bit for bit what math.Exp returns on an amd64 CPU without
// FMA, on every architecture: +Inf above 709.78, +0 below about −745.13, and,
// like it, +Inf for +Inf, +0 for −Inf and NaN for NaN.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2Hi    = 0.69314718055966295651160180568695068359375
		ln2Lo    = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
		c3       = 1.6666666666666666667e-1
		c4       = 4.1666666666666666667e-2
		c5       = 8.3333333333333333333e-3
		c6       = 1.3888888888888888889e-3
		c7       = 1.9841269841269841270e-4
		c8       = 2.4801587301587301587e-5
	)
	switch b := math.Float64bits(x); {
	case b == 0xFFF0000000000000: // −Inf
		return 0
	case b&^(1<<63) >= 0x7FF0000000000000: // NaN, +Inf
		return x
	case x > overflow:
		return math.Inf(1)
	}
	kf := math.RoundToEven(float64(log2e * x))
	switch {
	case kf < -1075: // 2^k·r rounds to +0
		return 0
	case kf >= 1024:
		return math.Inf(1)
	}
	r := x - float64(kf*ln2Hi)
	r = float64(r - float64(kf*ln2Lo))
	r = float64(r * 0.0625)
	p := float64(c8 * r)
	p = float64(float64(p+c7) * r)
	p = float64(float64(p+c6) * r)
	p = float64(float64(p+c5) * r)
	p = float64(float64(p+c4) * r)
	p = float64(float64(p+c3) * r)
	p = float64(float64(p+0.5) * r)
	y := float64(float64(p+1) * r)
	for range 4 {
		y = float64(y * float64(y+2))
	}
	y++
	k := int64(kf) + 1023 // the biased exponent of 2^k
	if k <= 0 {
		// 2^k is subnormal: scale by 2^(k+1022), then by 2^−1022.
		y = float64(y * math.Float64frombits(uint64(k+1022)<<52))
		k = 1
	}
	return y * math.Float64frombits(uint64(k)<<52)
}

// expGo is expKernel's twin: it replaces every x[i] by Exp(x[i]).
func expGo(x []float64) (done int) {
	for i, v := range x {
		x[i] = Exp(v)
	}
	return len(x)
}

// expInPlace replaces every x[i] by Exp(x[i]): the kernel takes every block
// of lanes inside its range, Exp the block it stops at.
func expInPlace(x []float64) {
	for len(x) > 0 {
		x = x[expKernel(x):]
		for n := min(expBlock, len(x)); n > 0; n-- {
			x[0] = Exp(x[0])
			x = x[1:]
		}
	}
}

// ExpInto stores float32(Exp(float64(v))) for the rows of src into the rows
// of dst that mask selects, in order — every row of dst when mask is nil, and
// then dst may be src. src's rows are consecutive, so one kernel call takes
// expChunk elements whatever the row width: the loss head's softmax
// probabilities, scattered back onto the rows of the logits they came from.
// It panics when the widths differ or src has not one row per selected row.
func ExpInto(dst, src *Tensor, mask []bool) {
	if dst.cols != src.cols || mask != nil && len(mask) != dst.rows {
		panic(fmt.Sprintf("tensor: ExpInto %dx%d into %dx%d with %d mask entries",
			src.rows, src.cols, dst.rows, dst.cols, len(mask)))
	}
	if n := selected(mask, dst.rows); n != src.rows {
		panic(fmt.Sprintf("tensor: ExpInto %d source rows for %d selected rows", src.rows, n))
	}
	var buf [expChunk]float64
	w, o := src.cols, src.data
	i, j := nextRow(mask, 0), 0 // the destination row and column of o[0]
	for len(o) > 0 {
		e := buf[:min(len(buf), len(o))]
		for t, v := range o[:len(e)] {
			e[t] = float64(v)
		}
		expInPlace(e)
		o = o[len(e):]
		for len(e) > 0 {
			out := dst.data[i*w+j : (i+1)*w]
			out = out[:min(len(out), len(e))]
			for t, v := range e[:len(out)] {
				out[t] = float32(v)
			}
			e = e[len(out):]
			if j += len(out); j == w {
				i, j = nextRow(mask, i+1), 0
			}
		}
	}
}

// selected counts the rows mask selects out of rows (all of them when nil).
func selected(mask []bool, rows int) int {
	if mask == nil {
		return rows
	}
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return n
}

// nextRow is the first row at or after i that mask selects (i itself when
// mask is nil), or len(mask).
func nextRow(mask []bool, i int) int {
	for mask != nil && i < len(mask) && !mask[i] {
		i++
	}
	return i
}

// segments is the layout a softmax normalises over: segment s spans
// [offsets[s], offsets[s+1]) or, with nil offsets, the w floats of row s; a
// mask, when set, skips the rows it does not select.
type segments struct {
	offsets []int32
	w, n    int
	mask    []bool
}

// bounds returns segment s's first element and the one past its last.
func (g *segments) bounds(s int) (lo, hi int) {
	if g.offsets != nil {
		return int(g.offsets[s]), int(g.offsets[s+1])
	}
	return s * g.w, (s + 1) * g.w
}

// shiftedExps hands out exp(float64(v − m)) for every element v of a run of
// segments of src, in order, m being the maximum of v's segment: the terms a
// softmax or log-softmax sums. It computes them expChunk at a time, straight
// across segment boundaries, from a fill cursor that runs ahead of what has
// been handed out.
type shiftedExps struct {
	buf       [expChunk]float64
	max       [expChunk]float32 // max[j]: the maximum of the segment buf[j] starts
	next, end int               // buf[next:end] is still to be handed out
	src       []float32
	segs      segments
	s, i      int     // the fill cursor: element i, in segment s
	m         float32 // the maximum of segment s
}

// start points x at the first segment of segs over src.
func (x *shiftedExps) start(src []float32, segs segments) {
	x.src, x.segs, x.s = src, segs, nextRow(segs.mask, 0)
	if x.s < segs.n {
		x.i, _ = segs.bounds(x.s)
	}
}

// take returns the next up to n exponentials, refilling the buffer when it
// has none left, and, when the first of them starts its segment, that
// segment's maximum. The slice is good until the next call.
func (x *shiftedExps) take(n int) (e []float64, m float32) {
	if x.next == x.end {
		x.fill()
	}
	e, m = x.buf[x.next:min(x.end, x.next+n)], x.max[x.next]
	x.next += len(e)
	return e, m
}

// fill computes the buffer's next run of exponentials from the fill cursor
// on. It reads no element of src before the cursor, so a softmax may write
// its output over src behind it.
func (x *shiftedExps) fill() {
	buf, src, segs := x.buf[:], x.src, &x.segs
	s, i, m, n := x.s, x.i, x.m, 0
	for n < len(buf) && s < segs.n {
		lo, hi := segs.bounds(s)
		if i == lo {
			m = maxOf(src[lo:hi])
			x.max[n] = m
		}
		in := src[i : i+min(hi-i, len(buf)-n)]
		out := buf[n : n+len(in)]
		for k, v := range in {
			out[k] = float64(v - m)
		}
		n, i = n+len(in), i+len(in)
		if i == hi {
			if s = nextRow(segs.mask, s+1); s < segs.n {
				i, _ = segs.bounds(s)
			}
		}
	}
	x.s, x.i, x.m = s, i, m
	expInPlace(buf[:n])
	x.next, x.end = 0, n
}

// maxOf is the largest element of v, −Inf when v is empty or all NaN: the
// maximum the loop "if x > m { m = x }" from −Inf finds, but for the sign of
// a zero maximum, which no softmax or log-softmax output depends on (x − (±0)
// is x for every x ≠ 0, exp(±0) is 1, and ±0 + log(sum) is log(sum) as sum ≥
// 1). It compares order keys — the bits of a float with the magnitude bits
// of a negative one flipped, a NaN given −Inf's key — as integers, which the
// compiler selects between without a branch: a random row's new maxima are
// the branches a predictor misses.
func maxOf(v []float32) float32 {
	const negInf = -0x7F800001 // key(−Inf)
	m := int32(negInf)
	for _, x := range v {
		b := math.Float32bits(x)
		k := int32(b ^ (b>>31)*0x7FFFFFFF)
		if b&0x7FFFFFFF > 0x7F800000 {
			k = negInf
		}
		if k > m {
			m = k
		}
	}
	u := uint32(m)
	return math.Float32frombits(u ^ (u>>31)*0x7FFFFFFF)
}

// SoftmaxSegments stores into dst the softmax of every segment of src,
// segment s spanning [offsets[s], offsets[s+1]); offsets start at 0 and never
// decrease, and dst may be src. Each segment's maximum is subtracted first,
// the exponentials are summed in float64 in element order and each is
// scaled, rounded to float32, by the float32 reciprocal of the sum.
func SoftmaxSegments(dst, src []float32, offsets []int32) {
	n := len(offsets) - 1
	if n < 0 {
		return
	}
	if e := int(offsets[n]); len(src) < e || len(dst) < e {
		panic(fmt.Sprintf("tensor: SoftmaxSegments over %d elements, src %d, dst %d", e, len(src), len(dst)))
	}
	softmaxSegments(dst, src, segments{offsets: offsets, n: n})
}

// SoftmaxRows applies a numerically stable softmax independently to each row.
func SoftmaxRows(t *Tensor) *Tensor {
	out := New(t.rows, t.cols)
	softmaxSegments(out.data, t.data, segments{w: t.cols, n: t.rows})
	return out
}

// softmaxSegments is SoftmaxSegments and SoftmaxRows over any layout.
func softmaxSegments(dst, src []float32, segs segments) {
	var x shiftedExps
	x.start(src, segs)
	for s := 0; s < segs.n; s++ {
		lo, hi := segs.bounds(s)
		if lo == hi {
			continue
		}
		var sum float64
		for i := lo; i < hi; {
			e, _ := x.take(hi - i)
			out := dst[i : i+len(e)]
			for k, v := range e {
				out[k] = float32(v)
				sum += v
			}
			i += len(e)
		}
		inv := float32(1 / sum)
		out := dst[lo:hi]
		for k := range out {
			out[k] *= inv
		}
	}
}

// LogSoftmaxRows applies a numerically stable log-softmax to each row.
func LogSoftmaxRows(t *Tensor) *Tensor {
	out := New(t.rows, t.cols)
	LogSoftmaxRowsInto(out, t, nil)
	return out
}

// LogSoftmaxRowsInto stores the log-softmax of the rows of src that mask
// selects (every row when mask is nil) into the consecutive rows of dst:
// each row minus its maximum is exponentiated and summed in float64, and
// every element takes src[j] − (max + log sum), rounded to float32 once.
// dst must not overlap src. It panics when the widths differ or dst has not
// one row per selected row.
func LogSoftmaxRowsInto(dst, src *Tensor, mask []bool) {
	if dst.cols != src.cols || mask != nil && len(mask) != src.rows {
		panic(fmt.Sprintf("tensor: LogSoftmaxRowsInto %dx%d into %dx%d with %d mask entries",
			src.rows, src.cols, dst.rows, dst.cols, len(mask)))
	}
	if n := selected(mask, src.rows); n != dst.rows {
		panic(fmt.Sprintf("tensor: LogSoftmaxRowsInto %d selected rows into %d", n, dst.rows))
	}
	w := src.cols
	var x shiftedExps
	x.start(src.data, segments{w: w, n: src.rows, mask: mask})
	out := dst.data
	for i := nextRow(mask, 0); i < src.rows; i = nextRow(mask, i+1) {
		var sum float64
		var m float32
		for j := 0; j < w; {
			e, mj := x.take(w - j)
			if j == 0 {
				m = mj
			}
			for _, v := range e {
				sum += v
			}
			j += len(e)
		}
		lse := m + float32(math.Log(sum))
		for j, v := range src.data[i*w : (i+1)*w] {
			out[j] = v - lse
		}
		out = out[w:]
	}
}
