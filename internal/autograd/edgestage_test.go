package autograd_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/tensor"
)

// The tests in this file hold RowDot and Gather's backward to the per-row
// scalar loops they replaced, bit for bit, in every binding the row kernels
// can take on this host; TestAggregateWeightedBackwardGrouped and
// TestEdgeSoftmaxMatchesUnfused do the same for the rest of GAT's edge stage.

// inKernelModes runs f once per tensor.KernelModes binding, as a subtest
// named after it, and restores the binding when f has run in each.
func inKernelModes(t *testing.T, f func(t *testing.T)) {
	for _, m := range tensor.KernelModes() {
		restore := tensor.SetKernelMode(m)
		t.Run(m, f)
		restore()
	}
}

// edgeValue draws a normal float32 or, with special set, one of ±0, ±Inf,
// the NaN the hardware makes (every NaN in a run has one bit pattern), a
// subnormal or a normal value.
func edgeValue(rng *tensor.RNG, special bool) float32 {
	if special {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return float32(math.Copysign(0, -1))
		case 2:
			inf := float32(math.Inf(1))
			return inf - inf
		case 3:
			return float32(math.Inf(1 - 2*rng.Intn(2)))
		case 4:
			return math.Float32frombits(uint32(rng.Intn(2))<<31 | uint32(1+rng.Intn(0x7fffff)))
		}
	}
	return float32(rng.NormFloat64())
}

// edgeTensor is a rows x cols tensor of edgeValues.
func edgeTensor(rng *tensor.RNG, rows, cols int, special bool) *tensor.Tensor {
	x := tensor.New(rows, cols)
	for i := range x.Data() {
		x.Data()[i] = edgeValue(rng, special)
	}
	return x
}

// TestRowDotMatchesRowLoops: RowDot's value is one tensor.Dot per row, x's
// gradient one Axpy of w per row and w's one Axpy per row of x onto a
// cleared row in ascending i, over 0–19 rows and every value class.
func TestRowDotMatchesRowLoops(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := tensor.NewRNG(47)
		for _, dim := range []int{8, 13, 16, 32} {
			for rows := 0; rows < 20; rows++ {
				for _, special := range []bool{false, true} {
					xv, wv := edgeTensor(rng, rows, dim, special), edgeTensor(rng, 1, dim, special)
					seed := edgeTensor(rng, rows, 1, special)
					name := fmt.Sprintf("dim=%d rows=%d special=%v", dim, rows, special)

					want, wantX, wantW := tensor.New(rows, 1), tensor.New(rows, dim), tensor.New(1, dim)
					for i := 0; i < rows; i++ {
						want.Data()[i] = tensor.Dot(xv.Row(i), wv.Row(0))
						tensor.Axpy(wantX.Row(i), seed.Data()[i], wv.Row(0))
						tensor.Axpy(wantW.Row(0), seed.Data()[i], xv.Row(i))
					}
					tp := autograd.NewTape()
					x, w := tp.Leaf(xv, true, "x"), tp.Leaf(wv, true, "w")
					out := tp.RowDot(x, w)
					tp.Backward(out, seed)
					requireBitEqual(t, name+" value", out.Value, want)
					requireBitEqual(t, name+" dx", x.Grad, wantX)
					requireBitEqual(t, name+" dw", w.Grad, wantW)
				}
			}
		}
	})
}

// TestGatherBackwardMatchesRowAdds: Gather's gradient is one AddTo of each
// output row's gradient into its source row, in ascending output row, over
// repeated and absent sources and every value class.
func TestGatherBackwardMatchesRowAdds(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		rng := tensor.NewRNG(53)
		const rows = 9
		for _, dim := range []int{8, 13, 32} {
			for n := 0; n <= 30; n += 3 {
				for _, special := range []bool{false, true} {
					idx := make([]int32, n)
					for i := range idx {
						idx[i] = int32(rng.Intn(rows))
					}
					xv, seed := edgeTensor(rng, rows, dim, special), edgeTensor(rng, n, dim, special)
					want := tensor.New(rows, dim)
					for i, r := range idx {
						tensor.AddTo(want.Row(int(r)), seed.Row(i))
					}
					tp := autograd.NewTape()
					x := tp.Leaf(xv, true, "x")
					tp.Backward(tp.Gather(x, idx), seed)
					requireBitEqual(t, fmt.Sprintf("dim=%d n=%d special=%v dx", dim, n, special), x.Grad, want)
				}
			}
		}
	})
}

// TestRowDotBackwardAllocations counts what RowDot's backward draws from the
// tape's arena — the root's gradient accumulator, then x.Grad and w.Grad for
// whichever requires one — and, with NS_PERF_ALLOCS set (the heap count is
// meaningless under -race), holds its heap allocations, and those of
// AggregateWeighted's backward beside it, to zero once the arena's pool is
// warm: the kernels' scratch lives on the stack.
func TestRowDotBackwardAllocations(t *testing.T) {
	rng := tensor.NewRNG(61)
	xv, wv, seed := tensor.RandNormal(37, 32, 0, 1, rng), tensor.RandNormal(1, 32, 0, 1, rng), tensor.RandNormal(37, 1, 0, 1, rng)
	for _, tc := range []struct {
		name         string
		xGrad, wGrad bool
		want         int64
	}{
		{"constant x and w", false, false, 1},
		{"x requires grad", true, false, 2},
		{"w requires grad", false, true, 2},
		{"both require grad", true, true, 3},
	} {
		pool := tensor.NewPool()
		tp := autograd.NewTapeArena(pool.Arena())
		out := tp.RowDot(tp.Leaf(xv, tc.xGrad, "x"), tp.Leaf(wv, tc.wGrad, "w"))
		before := pool.Stats()
		tp.Backward(out, seed)
		after := pool.Stats()
		if got := after.Hits + after.Misses - before.Hits - before.Misses; got != tc.want {
			t.Errorf("%s: Backward drew %d tensors, want %d", tc.name, got, tc.want)
		}
	}
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	// 40 edges into one destination: five groups of eight through the kernel.
	src, dst := make([]int32, 40), make([]int32, 40)
	for e := range src {
		src[e] = int32(e % xv.Rows())
	}
	alpha := tensor.RandNormal(len(dst), 1, 0, 1, rng)
	aggSeed := tensor.RandNormal(1, xv.Cols(), 0, 1, rng)
	for _, op := range []struct {
		name    string
		forward func(tp *autograd.Tape) (*autograd.Variable, *tensor.Tensor)
	}{
		{"RowDot", func(tp *autograd.Tape) (*autograd.Variable, *tensor.Tensor) {
			return tp.RowDot(tp.Leaf(xv, true, "x"), tp.Leaf(wv, true, "w")), seed
		}},
		{"AggregateWeighted", func(tp *autograd.Tape) (*autograd.Variable, *tensor.Tensor) {
			return tp.AggregateWeighted(tp.Leaf(xv, true, "x"), src, tp.Leaf(alpha, true, "alpha"), dst, 1), aggSeed
		}},
	} {
		arena := tensor.NewPool().Arena()
		tp := autograd.NewTapeArena(arena)
		step := func(backward bool) func() {
			return func() {
				tp.Reset()
				out, g := op.forward(tp)
				if backward {
					tp.Backward(out, g)
				}
				arena.Release()
			}
		}
		step(true)() // warm the pool
		if n := testing.AllocsPerRun(100, step(true)) - testing.AllocsPerRun(100, step(false)); n != 0 {
			t.Errorf("%s: Backward allocated %v times per call, want 0", op.name, n)
		}
	}
}
