package tensor

import (
	"fmt"
	"math"
)

// Row kernels: the inner loops the hot path has. The three GEMMs and the
// fused aggregation bottom out in accRows, which adds a list of scaled source
// rows into one destination row, and the GEMMs in accRows4, which does the
// same for four destination rows at once, sharing each streamed source row
// between them; every other gradient or row accumulation runs in axpy or add
// over one contiguous row, and an aggregation backward in scatterEdges, one
// axpy per edge in one call. anyZero is the zero scan the NN and TA GEMMs
// choose between accRows4 and accRows with, and dotRows takes the dot
// products of one vector with a list of rows, eight rows at a time. The
// element-wise row ops — bias plus rectifier (biasReLU), the rectifier's
// gradient mask (reluMask) and a row scale (scale) — write one row once.
// expKernel, the one float64 kernel, is described in exp.go.
//
// Each kernel exists twice: amd64 assembly (rowkernels_amd64.s) and the
// portable Go twin below, which is what every other architecture runs and
// what the tests hold the assembly to. The binding is made at compile time by
// file name (rowkernels_amd64.go / rowkernels_other.go), plus two choices at
// run time, probed once at package init: an amd64 CPU without AVX runs the
// twins too, and one with AVX-512 runs accRows, accRows4 and scatterEdges
// 512 bits wide where a row has 32 (scatterEdges: 16) floats left.
//
// The assembly vectorises across j, or, in dotRows, across rows. Either way
// each lane's element still receives one product rounded to float32 and one
// add per term, in the order the scalar loop applies them, so the two forms
// agree to the bit — and so does any blocking of the loops around them that
// keeps the per-element term order, accRows4 included: it is four accRows
// calls. A sum is never split across lanes.
//
// The twins write every product as float32(a*b). Go's spec lets a compiler
// fuse x*y + z into one instruction with a single rounding, and the arm64,
// ppc64le, s390x and riscv64 back ends do; an explicit conversion (like an
// assignment) rounds to the target type and so forbids the fusion. With it
// every architecture rounds twice per term, as VMULPS/VADDPS and the scalar
// VMULSS/VADDSS of the amd64 build do, and checkpoints and the bit-identity
// pins carry across architectures. FMA is ruled out in the assembly for the
// same reason: VMULPS and VADDPS, never VFMADD.
//
// The wrappers own the length contract — the assembly trusts its arguments —
// and panic with constant strings: one compare and one call is all the
// inliner will carry into a caller's row loop. accRows has no wrapper: its
// callers in this package derive every row index from shapes they have
// checked, and ScaledScatterAdd and ScaledScatterAddEdgewise check the
// indices they are handed.

// Axpy adds a·x[j] to dst[j] for every j < len(x), each product rounded to
// float32 before it is added. It panics, before storing anything, when dst
// is shorter than x; elements of dst past len(x) are left alone. dst and x
// may be the same slice but must not otherwise overlap.
func Axpy(dst []float32, a float32, x []float32) {
	if len(dst) < len(x) {
		panic("tensor: Axpy destination shorter than source")
	}
	axpyKernel(dst, a, x)
}

// AddTo adds x[j] to dst[j] for every j < len(x). It panics, before
// storing anything, when dst is shorter than x; elements of dst past len(x)
// are left alone. dst and x may be the same slice but must not otherwise
// overlap.
func AddTo(dst, x []float32) {
	if len(dst) < len(x) {
		panic("tensor: AddTo destination shorter than source")
	}
	addKernel(dst, x)
}

// ScaledScatterAdd computes out[oi[e]] += c[e]·in[ii[e]] for e = 0..n-1 in
// ascending e, each product rounded to float32 before it is added: the fused
// aggregation (out a destination block, in the source rows); its backward,
// the indices swapped, runs ScaledScatterAddEdgewise. A nil index stands for
// the identity (edge e reads or writes row e) and a nil c for all ones, which
// is exact: 1·x is x. Each run of consecutive edges with one output row is
// one accRowsKernel call, so the row is loaded and stored once per run (a run
// of one edge, one axpy or add). Per element the result is the loop of one
// Axpy (AddTo when c is nil) per edge, bit for bit.
//
// out and in must have equal widths and must not share storage, and c, when
// not nil, and each index must cover n edges. It panics on any of these, and
// on an index that names no row of its tensor.
func ScaledScatterAdd(out *Tensor, oi []int32, in *Tensor, ii []int32, c []float32, n int) {
	checkScatter(out, oi, in, ii, c, n)
	cols := in.cols
	for e := 0; e < n; {
		o, r := e, e+1
		if oi != nil {
			o = int(oi[e])
			for r < n && oi[r] == oi[e] {
				r++
			}
		}
		if uint(o) >= uint(out.rows) {
			panic(fmt.Sprintf("tensor: ScaledScatterAdd output index %d outside %d rows", o, out.rows))
		}
		dst := out.data[o*cols : (o+1)*cols]
		if r == e+1 {
			// A run of one edge costs less through the plain row kernels.
			i := e
			if ii != nil {
				i = int(ii[e])
			}
			if uint(i) >= uint(in.rows) {
				panic(fmt.Sprintf("tensor: ScaledScatterAdd input index %d outside %d rows", i, in.rows))
			}
			if c == nil {
				addKernel(dst, in.data[i*cols:(i+1)*cols])
			} else {
				axpyKernel(dst, c[e], in.data[i*cols:(i+1)*cols])
			}
			e = r
			continue
		}
		src, idx, cr := in.data, []int32(nil), []float32(nil)
		if ii == nil {
			src = in.data[e*cols:]
		} else {
			idx = ii[e:r]
			for _, v := range idx {
				if uint32(v) >= uint32(in.rows) {
					panic(fmt.Sprintf("tensor: ScaledScatterAdd input index %d outside %d rows", v, in.rows))
				}
			}
		}
		if c != nil {
			cr = c[e:r]
		}
		accRowsKernel(dst, src, cols, idx, cr, r-e, false)
		e = r
	}
}

// ScaledScatterAddEdgewise is ScaledScatterAdd — the same contract, the
// same panics, the same bits — for output indices that seldom repeat from
// one edge to the next, such as an aggregation backward's, whose output rows
// are the edges' sources: every index is checked once, then one
// scatterEdgesKernel call applies all n edges in ascending e, each output row
// loaded and stored per edge. Widths the kernel does not take (not a multiple
// of 8) run through ScaledScatterAdd.
func ScaledScatterAddEdgewise(out *Tensor, oi []int32, in *Tensor, ii []int32, c []float32, n int) {
	if in.cols%8 != 0 {
		ScaledScatterAdd(out, oi, in, ii, c, n)
		return
	}
	checkScatter(out, oi, in, ii, c, n)
	if oi != nil {
		checkRows("output", oi[:n], out.rows)
	}
	if ii != nil {
		checkRows("input", ii[:n], in.rows)
	}
	scatterEdgesKernel(out.data, in.data, in.cols, oi, ii, c, n)
}

// DotRows sets out[t] to Dot(g, row r(t) of x) for every t < len(out),
// where x holds rows of len(g) floats back to back and r(t) is idx[t], or t
// when idx is nil: every dot summed from +0 in ascending k, one product
// rounded to float32 and one add per term, so out[t] has Dot's bits. With a
// width that is a multiple of 8 it is one dotRowsKernel call, which takes
// eight rows at a time, one row to a lane; any other width runs the twin.
//
// idx, when not nil, must hold len(out) indices, and out must not overlap g
// or x. It panics on a short index and on an index that names no row of x.
func DotRows(out, g, x []float32, idx []int32) {
	n, cols := len(out), len(g)
	if idx != nil && len(idx) < n {
		panic(fmt.Sprintf("tensor: DotRows %d indices for %d rows", len(idx), n))
	}
	if cols == 0 {
		clear(out) // every dot of an empty row is +0
		return
	}
	rows := len(x) / cols
	if idx == nil {
		if n > rows {
			panic(fmt.Sprintf("tensor: DotRows %d rows from %d", n, rows))
		}
	} else {
		for _, v := range idx[:n] {
			if uint32(v) >= uint32(rows) {
				panic(fmt.Sprintf("tensor: DotRows index %d outside %d rows", v, rows))
			}
		}
	}
	if cols%8 != 0 {
		dotRowsGo(out, g, x, cols, idx, n)
		return
	}
	dotRowsKernel(out, g, x, cols, idx, n)
}

// AxpyRows adds c[i]·v to row i of dst for every row i, each product rounded
// to float32 before it is added: one Axpy of v per row, four rows to an
// accRows4Kernel call (the rows past the last four, one axpyKernel call
// each). v must hold dst.Cols() floats and c dst.Rows(), and v must not
// share storage with dst; it panics on a short v or c.
func AxpyRows(dst *Tensor, c, v []float32) {
	w := dst.cols
	if len(v) < w || len(c) < dst.rows {
		panic(fmt.Sprintf("tensor: AxpyRows %d coefficients and %d floats into %dx%d", len(c), len(v), dst.rows, w))
	}
	i := 0
	for ; i+4 <= dst.rows; i += 4 {
		accRows4Kernel(dst.data[i*w:], w, w, v, 0, c[i:], 1, 0, 1, false)
	}
	for ; i < dst.rows; i++ {
		axpyKernel(dst.data[i*w:(i+1)*w], c[i], v[:w])
	}
}

// WeightedSumRowsInto stores Σ_i c[i]·t[i,·] into dst, 1 x t.Cols(): a row
// dot product's gradient with respect to its shared vector. The terms are
// summed from +0 in ascending i, each product rounded to float32 before it
// is added and none skipped — a cleared row taking one Axpy per row of t,
// bit for bit — in one accRowsKernel call. dst may come uncleared and must
// not share storage with t; c must hold t.Rows() coefficients.
func WeightedSumRowsInto(dst, t *Tensor, c []float32) {
	if dst.rows != 1 || dst.cols != t.cols || len(c) < t.rows {
		panic(fmt.Sprintf("tensor: WeightedSumRowsInto %dx%d from %dx%d and %d coefficients",
			dst.rows, dst.cols, t.rows, t.cols, len(c)))
	}
	mustNotAlias("WeightedSumRowsInto", dst, t, t)
	accRowsKernel(dst.data, t.data, t.cols, nil, c, t.rows, true)
}

// checkScatter panics unless out and in have equal widths and share no
// storage, and c, when not nil, and each index cover n edges.
func checkScatter(out *Tensor, oi []int32, in *Tensor, ii []int32, c []float32, n int) {
	if out.cols != in.cols {
		panic(fmt.Sprintf("tensor: ScaledScatterAdd %d-wide rows into %d-wide", in.cols, out.cols))
	}
	if sharesStorage(out, in) {
		panic("tensor: ScaledScatterAdd output aliases its input")
	}
	if (oi == nil && n > out.rows) || (oi != nil && len(oi) < n) ||
		(ii == nil && n > in.rows) || (ii != nil && len(ii) < n) || (c != nil && len(c) < n) {
		panic(fmt.Sprintf("tensor: ScaledScatterAdd %d edges over %d/%d output, %d/%d input indices, %d coefficients",
			n, len(oi), out.rows, len(ii), in.rows, len(c)))
	}
}

// checkRows panics naming the first index that is no row of a rows-row
// tensor.
func checkRows(what string, idx []int32, rows int) {
	for _, v := range idx {
		if uint32(v) >= uint32(rows) {
			panic(fmt.Sprintf("tensor: ScaledScatterAdd %s index %d outside %d rows", what, v, rows))
		}
	}
}

// axpyGo is the portable twin of axpyKernel.
func axpyGo(dst []float32, a float32, x []float32) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] += float32(a * v)
	}
}

// addGo is the portable twin of addKernel.
func addGo(dst, x []float32) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] += v
	}
}

// accRowsGo is the portable twin of accRowsKernel: for every j < len(dst),
//
//	dst[j] = d + float32(c(0)·src[r(0)·stride+j]) + … + float32(c(n-1)·src[r(n-1)·stride+j])
//
// summed left to right, where d is dst[j], or +0 when zero is set; r(t) is
// idx[t], or t when idx is nil; and c(t) is c[t], or 1 when c is nil. It is n
// Axpy steps over one row, and with zero set the first of them lands on a
// cleared row. Every row read must lie inside src, idx and c must hold n
// entries unless nil, and dst must not overlap src.
func accRowsGo(dst, src []float32, stride int, idx []int32, c []float32, n int, zero bool) {
	if zero {
		clear(dst)
	}
	for t := 0; t < n; t++ {
		r, a := t, float32(1)
		if idx != nil {
			r = int(idx[t])
		}
		if c != nil {
			a = c[t]
		}
		row := src[r*stride:][:len(dst)]
		for j, v := range row {
			dst[j] += float32(a * v)
		}
	}
}

// accRows4Go is the portable twin of accRows4Kernel: for r < 4 it is
//
//	accRowsGo(dst[r·ds:][:w], src, ss, nil, c_r, n, zero)
//
// with c_r(t) = c[r·cr + t·ct]. Coefficients with cr = a row's length and
// ct = 1 are four rows of a matrix; with cr = 1 and ct = its row length,
// four adjacent columns of one, read in place. Every row read must lie inside
// src and c, and dst must not overlap src.
func accRows4Go(dst []float32, ds, w int, src []float32, ss int, c []float32, cr, ct, n int, zero bool) {
	for r := 0; r < 4; r++ {
		d := dst[r*ds:][:w]
		if zero {
			clear(d)
		}
		for t := 0; t < n; t++ {
			a := c[r*cr+t*ct]
			for j, v := range src[t*ss:][:w] {
				d[j] += float32(a * v)
			}
		}
	}
}

// anyZeroGo is the portable twin of anyZeroKernel: it reports whether any
// of rows rows of w floats, stride floats apart from a[0], holds a ±0. NaN
// is not zero. Every row scanned must lie inside a.
func anyZeroGo(a []float32, rows, w, stride int) bool {
	for r := 0; r < rows; r++ {
		for _, b := range bitsOf(a[r*stride:][:w]) {
			if b&absMask == 0 {
				return true
			}
		}
	}
	return false
}

// scatterEdgesGo is the portable twin of scatterEdgesKernel: for e = 0..n-1
// in ascending e,
//
//	out[o(e)·cols+j] += float32(c(e)·in[i(e)·cols+j])   for j < cols
//
// where o(e) is oi[e], or e when oi is nil; i(e) is ii[e], or e when ii is
// nil; and c(e) is c[e], or 1 when c is nil: one axpy per edge. cols must be
// a multiple of 8, every row named must lie inside its slice, and out must
// not overlap in.
func scatterEdgesGo(out, in []float32, cols int, oi, ii []int32, c []float32, n int) {
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
		d := out[o*cols:][:cols]
		for j, v := range in[i*cols:][:cols] {
			d[j] += float32(a * v)
		}
	}
}

// dotRowsGo is the portable twin of dotRowsKernel: for every t < n,
//
//	out[t] = +0 + float32(g[0]·x[r(t)·cols]) + … + float32(g[cols−1]·x[r(t)·cols+cols−1])
//
// summed left to right, where r(t) is idx[t], or t when idx is nil: one Dot
// per row. g must hold cols floats, every row read must lie inside x, idx
// must hold n entries unless nil, and out must not overlap g or x.
func dotRowsGo(out, g, x []float32, cols int, idx []int32, n int) {
	g = g[:cols]
	for t := range out[:n] {
		r := t
		if idx != nil {
			r = int(idx[t])
		}
		row := x[r*cols:][:cols]
		var s float32
		for k, v := range g {
			s += float32(v * row[k])
		}
		out[t] = s
	}
}

// biasReLUGo is the portable twin of biasReLUKernel: dst[j] = x[j]+bias[j]
// when that sum is greater than zero and +0 otherwise (NaN and −0 too),
// for every j < len(bias). dst and x must hold len(bias) floats; dst may be
// x but must not otherwise overlap it.
func biasReLUGo(dst, x, bias []float32) {
	out, x := bitsOf(dst)[:len(bias)], x[:len(bias)]
	for j, b := range bias {
		z := math.Float32bits(x[j] + b)
		out[j] = z & posMask(z)
	}
}

// reluMaskGo is the portable twin of reluMaskKernel: dst[j] = g[j] when
// o[j] > 0 and +0 otherwise (o[j] NaN or ±0 too), for every j < len(o): the
// rectifier's gradient, masked by its output or its input. dst and g must
// hold len(o) floats; dst may be g but must not otherwise overlap it.
func reluMaskGo(dst, g, o []float32) {
	out, gb := bitsOf(dst)[:len(o)], bitsOf(g)[:len(o)]
	for j, b := range bitsOf(o) {
		out[j] = gb[j] & posMask(b)
	}
}

// scaleGo is the portable twin of scaleKernel: dst[j] = x[j]·a for every
// j < len(x). dst must hold len(x) floats; it may be x but must not otherwise
// overlap it.
func scaleGo(dst []float32, a float32, x []float32) {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] = v * a
	}
}
