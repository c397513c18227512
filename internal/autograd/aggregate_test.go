package autograd_test

import (
	"fmt"
	"math"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
	"neutronstar/internal/testkit"
)

// aggCase is one input of the fused-vs-decoupled comparison: numDst
// destinations, edge e reading row src[e] of x (row e when src is nil) scaled
// by coeff[e] (1 when nil).
type aggCase struct {
	name   string
	x      *tensor.Tensor
	src    []int32
	coeff  []float32
	dst    []int32
	numDst int
}

// aggCases covers the fixture graph (hub = duplicate sources, multi-edge,
// self-loop, zero-in-degree destinations), random graphs, an empty edge list
// and the nil forms of src and coeff.
func aggCases() []aggCase {
	const dim = 5
	rng := tensor.NewRNG(97)
	coeffs := func(n int) []float32 {
		c := make([]float32, n)
		for i := range c {
			c[i] = float32(rng.NormFloat64())
		}
		return c
	}
	var cases []aggCase
	add := func(name string, g *graph.Graph) {
		b := graph.FullBlock(g)
		src, dst := b.SrcRow, b.EdgeDst
		if src == nil {
			src = []int32{} // a nil index means "row e", not "no edges"
		}
		n := g.NumVertices()
		x := tensor.RandNormal(n, dim, 0, 1, rng)
		cases = append(cases,
			aggCase{name + "/norm", x, src, coeffs(len(src)), dst, n},
			aggCase{name + "/norm=nil", x, src, nil, dst, n},
			aggCase{name + "/src=nil", tensor.RandNormal(len(dst), dim, 0, 1, rng), nil, coeffs(len(dst)), dst, n},
			aggCase{name + "/src=nil,norm=nil", tensor.RandNormal(len(dst), dim, 0, 1, rng), nil, nil, dst, n})
	}
	fixture, _, _, _ := testkit.OpGraph()
	add("fixture", fixture)
	for i := 0; i < 8; i++ {
		add(fmt.Sprintf("random%d", i), testkit.RandomGraph(rng, testkit.GenSpec{}))
	}
	add("edgeless", graph.MustFromEdges(4, nil))
	// What an engine block without edges passes: a nil index over a non-empty
	// row universe is zero edges, not a malformed identity.
	cases = append(cases, aggCase{"edgeless/nil index", tensor.RandNormal(4, dim, 0, 1, rng), nil, nil, nil, 4})
	return cases
}

// decoupled is the composition Aggregate replaces, kept as its oracle.
func decoupled(tp *autograd.Tape, x *autograd.Variable, c aggCase) *autograd.Variable {
	rows := x
	if c.src != nil {
		rows = tp.Gather(x, c.src)
	}
	if c.coeff != nil {
		rows = tp.MulColVec(rows, c.coeff)
	}
	return tp.ScatterAddRows(rows, c.dst, c.numDst)
}

// naiveAggregate materialises every scaled edge row, then sums them per
// destination in edge order: the forward oracle that shares no code with the
// tape.
func naiveAggregate(c aggCase) *tensor.Tensor {
	cols := c.x.Cols()
	edges := tensor.New(len(c.dst), cols)
	for e := range c.dst {
		row := e
		if c.src != nil {
			row = int(c.src[e])
		}
		for j, v := range c.x.Row(row) {
			if c.coeff != nil {
				v *= c.coeff[e]
			}
			edges.Set(e, j, v)
		}
	}
	out := tensor.New(c.numDst, cols)
	for e, d := range c.dst {
		for j, v := range edges.Row(e) {
			out.Set(int(d), j, out.At(int(d), j)+v)
		}
	}
	return out
}

func requireBitEqual(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, w := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", name, i, got.Data()[i], w)
		}
	}
}

func requireClose(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: gradient present on one side only (%v vs %v)", name, got, want)
		}
		return
	}
	if d := got.MaxAbsDiff(want); d > 1e-6 {
		t.Fatalf("%s: gradients differ by %g", name, d)
	}
}

// TestAggregateMatchesDecoupled: forward bit-equal to both oracles, gradient
// of x within 1e-6 of the composition's.
func TestAggregateMatchesDecoupled(t *testing.T) {
	for _, c := range aggCases() {
		seed := tensor.RandNormal(c.numDst, c.x.Cols(), 0, 1, tensor.NewRNG(3))

		ft := autograd.NewTape()
		fx := ft.Leaf(c.x, true, "x")
		fused := ft.Aggregate(fx, c.src, c.coeff, c.dst, c.numDst)
		ft.Backward(fused, seed)

		dt := autograd.NewTape()
		dx := dt.Leaf(c.x, true, "x")
		ref := decoupled(dt, dx, c)
		dt.Backward(ref, seed)

		requireBitEqual(t, c.name+" vs composition", fused.Value, ref.Value)
		requireBitEqual(t, c.name+" vs naive", fused.Value, naiveAggregate(c))
		requireClose(t, c.name+" dx", fx.Grad, dx.Grad)
	}
}

// TestAggregateWeightedMatchesDecoupled: the α flavour against
// Gather → BroadcastColMul → ScatterAddRows, gradients of x and of α.
func TestAggregateWeightedMatchesDecoupled(t *testing.T) {
	for _, c := range aggCases() {
		if c.coeff == nil {
			continue
		}
		alphaVal := tensor.FromSlice(len(c.coeff), 1, c.coeff)
		seed := tensor.RandNormal(c.numDst, c.x.Cols(), 0, 1, tensor.NewRNG(5))

		ft := autograd.NewTape()
		fx, fa := ft.Leaf(c.x, true, "x"), ft.Leaf(alphaVal, true, "alpha")
		fused := ft.AggregateWeighted(fx, c.src, fa, c.dst, c.numDst)
		ft.Backward(fused, seed)

		dt := autograd.NewTape()
		dx, da := dt.Leaf(c.x, true, "x"), dt.Leaf(alphaVal, true, "alpha")
		rows := dx
		if c.src != nil {
			rows = dt.Gather(dx, c.src)
		}
		ref := dt.ScatterAddRows(dt.BroadcastColMul(rows, da), c.dst, c.numDst)
		dt.Backward(ref, seed)

		requireBitEqual(t, c.name+" vs composition", fused.Value, ref.Value)
		requireBitEqual(t, c.name+" vs naive", fused.Value, naiveAggregate(c))
		requireClose(t, c.name+" dx", fx.Grad, dx.Grad)
		requireClose(t, c.name+" dalpha", fa.Grad, da.Grad)
	}
}

// TestAggregateTwoConsumersAccumulate: two aggregations reading one x add
// their gradients into x.Grad in place; neither overwrites the other.
func TestAggregateTwoConsumersAccumulate(t *testing.T) {
	cases := aggCases()
	a, b := cases[0], cases[1] // fixture graph, with and without coefficients
	seed := tensor.RandNormal(a.numDst, a.x.Cols(), 0, 1, tensor.NewRNG(7))
	gradOf := func(parts ...aggCase) *tensor.Tensor {
		tp := autograd.NewTape()
		x := tp.Leaf(a.x, true, "x")
		var sum *autograd.Variable
		for _, c := range parts {
			y := tp.Aggregate(x, c.src, c.coeff, c.dst, c.numDst)
			if sum == nil {
				sum = y
			} else {
				sum = tp.Add(sum, y)
			}
		}
		tp.Backward(sum, seed)
		return x.Grad
	}
	want := gradOf(a).Clone()
	tensor.AddInto(want, want, gradOf(b))
	requireClose(t, "two consumers", gradOf(a, b), want)
}

// TestAggregateBackwardAllocations counts the tensors Backward draws from the
// tape's arena. The root's gradient accumulator is always one; x.Grad (and
// α.Grad) are the only others — no per-edge temporary — and when x does not
// require grad the kernel's backward draws nothing at all.
func TestAggregateBackwardAllocations(t *testing.T) {
	c := aggCases()[0]
	alphaVal := tensor.FromSlice(len(c.coeff), 1, c.coeff)
	seed := tensor.RandNormal(c.numDst, c.x.Cols(), 0, 1, tensor.NewRNG(9))
	for _, tc := range []struct {
		name                string
		xGrad, weighted, aG bool
		want                int64
	}{
		{"constant x", false, false, false, 1},
		{"x requires grad", true, false, false, 2},
		{"weighted, only alpha requires grad", false, true, true, 2},
		{"weighted, both require grad", true, true, true, 3},
	} {
		pool := tensor.NewPool()
		tp := autograd.NewTapeArena(pool.Arena())
		x := tp.Leaf(c.x, tc.xGrad, "x")
		var out *autograd.Variable
		if tc.weighted {
			out = tp.AggregateWeighted(x, c.src, tp.Leaf(alphaVal, tc.aG, "alpha"), c.dst, c.numDst)
		} else {
			out = tp.Aggregate(x, c.src, c.coeff, c.dst, c.numDst)
		}
		before := pool.Stats()
		tp.Backward(out, seed)
		after := pool.Stats()
		if got := after.Hits + after.Misses - before.Hits - before.Misses; got != tc.want {
			t.Errorf("%s: Backward drew %d tensors, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAggregateWeightedBackwardGrouped holds the two-pass α backward, with
// each destination's dots in one tensor.DotRows call, to the loop it
// replaced: one tensor.Dot per edge into α.Grad, then one Axpy per edge into
// x.Grad, both in ascending e. In-degrees 0–20 give one and two full groups
// of eight and every part-filled group; sources repeat within groups; x is
// read through an index and as one row per edge, at widths the dot kernel
// takes and one it does not, over ordinary and ±0, ±Inf, NaN and subnormal
// operands; α, x, or both require grad, and the other gets no gradient; in
// every kernel binding.
func TestAggregateWeightedBackwardGrouped(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := tensor.NewRNG(43)
		const numSrc, numDst = 11, 21
		var src, dst []int32
		for d := 0; d < numDst; d++ {
			for k := 0; k < d; k++ {
				src = append(src, int32(rng.Intn(numSrc)))
				dst = append(dst, int32(d))
			}
		}
		for _, dim := range []int{8, 13, 16, 32} {
			for _, special := range []bool{false, true} {
				alpha := edgeTensor(rng, len(dst), 1, special)
				seed := edgeTensor(rng, numDst, dim, special)
				for _, in := range []struct {
					name string
					x    *tensor.Tensor
					src  []int32
				}{
					{"indexed", edgeTensor(rng, numSrc, dim, special), src},
					{"src=nil", edgeTensor(rng, len(dst), dim, special), nil},
				} {
					row := func(e int) int {
						if in.src == nil {
							return e
						}
						return int(in.src[e])
					}
					wantA, wantX := tensor.New(len(dst), 1), tensor.New(in.x.Rows(), dim)
					for e, d := range dst {
						wantA.Data()[e] += tensor.Dot(seed.Row(int(d)), in.x.Row(row(e)))
					}
					for e, d := range dst {
						tensor.Axpy(wantX.Row(row(e)), alpha.Data()[e], seed.Row(int(d)))
					}
					for _, grads := range []struct{ x, a bool }{{false, true}, {true, false}, {true, true}} {
						name := fmt.Sprintf("%s dim=%d special=%v x=%v alpha=%v", in.name, dim, special, grads.x, grads.a)
						tp := autograd.NewTape()
						x, a := tp.Leaf(in.x, grads.x, "x"), tp.Leaf(alpha, grads.a, "alpha")
						tp.Backward(tp.AggregateWeighted(x, in.src, a, dst, numDst), seed)
						if grads.a {
							requireBitEqual(t, name+" dalpha", a.Grad, wantA)
						} else if a.Grad != nil {
							t.Fatalf("%s: alpha got a gradient", name)
						}
						if grads.x {
							requireBitEqual(t, name+" dx", x.Grad, wantX)
						} else if x.Grad != nil {
							t.Fatalf("%s: x got a gradient", name)
						}
					}
				}
			}
		}
	})
}

func TestAggregateIndexMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("3 sources for 2 edges did not panic")
		}
	}()
	tp := autograd.NewTape()
	tp.Aggregate(tp.Constant(tensor.New(4, 2), "x"), []int32{0, 1, 2}, nil, []int32{0, 1}, 2)
}

// benchAggregate runs one forward + backward of a GCN-style aggregation at
// E = 32 k edges, F = 64 columns, through build.
func benchAggregate(b *testing.B, build func(tp *autograd.Tape, x *autograd.Variable, src []int32, norm []float32, dst []int32, n int) *autograd.Variable) {
	const (
		verts = 4096
		edges = 32 * 1024
		dim   = 64
	)
	rng := tensor.NewRNG(11)
	x := tensor.RandNormal(verts, dim, 0, 1, rng)
	src := make([]int32, edges)
	dst := make([]int32, edges)
	norm := make([]float32, edges)
	for e := range src {
		src[e] = int32(rng.Intn(verts))
		dst[e] = int32(e * verts / edges) // destination-grouped, as in CSC order
		norm[e] = 0.5
	}
	seed := tensor.New(verts, dim)
	seed.Fill(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := autograd.NewTape()
		out := build(tp, tp.Leaf(x, true, "x"), src, norm, dst, verts)
		tp.Backward(out, seed)
	}
}

func BenchmarkAggregateFused(b *testing.B) {
	benchAggregate(b, func(tp *autograd.Tape, x *autograd.Variable, src []int32, norm []float32, dst []int32, n int) *autograd.Variable {
		return tp.Aggregate(x, src, norm, dst, n)
	})
}

func BenchmarkAggregateDecoupled(b *testing.B) {
	benchAggregate(b, func(tp *autograd.Tape, x *autograd.Variable, src []int32, norm []float32, dst []int32, n int) *autograd.Variable {
		return tp.ScatterAddRows(tp.MulColVec(tp.Gather(x, src), norm), dst, n)
	})
}
