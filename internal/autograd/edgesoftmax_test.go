package autograd_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
	"neutronstar/internal/testkit"
)

const slope = 0.2

// edgeCase is one input of EdgeSoftmax: a source score column read through
// srcRow (row e when nil), one destination score per segment, and the CSC
// structure — edgeDst[e] is the segment offsets put edge e in.
type edgeCase struct {
	name     string
	src, dst *tensor.Tensor
	srcRow   []int32
	edgeDst  []int32
	offsets  []int32
}

// edgeCases runs aggCases' graphs — the fixture's hub, multi-edge,
// self-loop and zero-in-degree destinations, random graphs, an edgeless
// graph — with srcRow set and nil, plus an engine block without edges (nil
// index over a non-empty column) and a block without destinations.
func edgeCases() []edgeCase {
	rng := tensor.NewRNG(29)
	scores := func(n int) *tensor.Tensor { return tensor.RandNormal(n, 1, 0, 2, rng) }
	var cases []edgeCase
	add := func(name string, g *graph.Graph) {
		src, dst, offsets := testkit.CSC(g)
		if src == nil {
			src = []int32{} // a nil index means "row e", not "no edges"
		}
		n := g.NumVertices()
		cases = append(cases,
			edgeCase{name, scores(n), scores(n), src, dst, offsets},
			edgeCase{name + "/srcRow=nil", scores(len(dst)), scores(n), nil, dst, offsets})
	}
	fixture, _, _, _ := testkit.OpGraph()
	add("fixture", fixture)
	for i := 0; i < 8; i++ {
		add(fmt.Sprintf("random%d", i), testkit.RandomGraph(rng, testkit.GenSpec{}))
	}
	add("edgeless", graph.MustFromEdges(4, nil))
	sweep := degreeSweepCase(rng)
	cases = append(cases, sweep, edgeCase{sweep.name + "/srcRow=nil",
		scores(len(sweep.edgeDst)), sweep.dst, nil, sweep.edgeDst, sweep.offsets})
	cases = append(cases,
		edgeCase{"edgeless/nil index", scores(4), scores(4), nil, nil, []int32{0, 0, 0, 0, 0}},
		edgeCase{"empty block", scores(3), scores(0), nil, nil, []int32{0}})
	return cases
}

// degreeSweepCase has one destination of every in-degree 0–300, in a
// shuffled order, reading random source rows: the softmax takes its
// exponentials 256 at a time across segments, so a chunk ends at every
// offset into a segment somewhere in it.
func degreeSweepCase(rng *tensor.RNG) edgeCase {
	const srcRows = 97
	degs := rng.Perm(301)
	offsets := []int32{0}
	var srcRow, edgeDst []int32
	for s, d := range degs {
		for range d {
			srcRow = append(srcRow, int32(rng.Intn(srcRows)))
			edgeDst = append(edgeDst, int32(s))
		}
		offsets = append(offsets, int32(len(srcRow)))
	}
	return edgeCase{"degrees 0-300", tensor.RandNormal(srcRows, 1, 0, 2, rng),
		tensor.RandNormal(len(degs), 1, 0, 2, rng), srcRow, edgeDst, offsets}
}

// unfusedEdgeSoftmax is the chain EdgeSoftmax replaces, kept as its oracle.
func unfusedEdgeSoftmax(tp *autograd.Tape, src, dst *autograd.Variable, c edgeCase) *autograd.Variable {
	srcE := src
	if c.srcRow != nil || c.src.Rows() != len(c.edgeDst) {
		srcE = tp.Gather(src, c.srcRow)
	}
	score := tp.LeakyReLU(tp.Add(srcE, tp.Gather(dst, c.edgeDst)), slope)
	return tp.SegmentSoftmax(score, c.offsets)
}

// requireGradBitEqual is requireBitEqual for gradients, which may be absent
// on both sides.
func requireGradBitEqual(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: gradient present on one side only (%v vs %v)", name, got, want)
		}
		return
	}
	requireBitEqual(t, name, got, want)
}

// TestEdgeSoftmaxMatchesUnfused: α and both score gradients bit-equal to the
// Gather → Gather → Add → LeakyReLU → SegmentSoftmax chain, over ordinary
// scores and over ±0, ±Inf, NaN and subnormal ones — where the fused op's leaky
// masks, a multiply by {slope, 1}[x > 0], must give what LeakyReLU's
// selects give, and those are the branchy loops bit for bit
// (TestSignSelectBitIdenticalToBranchy) — in every kernel binding.
func TestEdgeSoftmaxMatchesUnfused(t *testing.T) {
	inKernelModes(t, func(t *testing.T) {
		for _, special := range []bool{false, true} {
			testEdgeSoftmaxMatchesUnfused(t, special)
		}
	})
}

func testEdgeSoftmaxMatchesUnfused(t *testing.T, special bool) {
	rng := tensor.NewRNG(59)
	for _, c := range edgeCases() {
		if special {
			c.name += "/special"
			for _, col := range []*tensor.Tensor{c.src, c.dst} {
				for i := range col.Data() {
					col.Data()[i] = edgeValue(rng, true)
				}
			}
		}
		seed := tensor.RandNormal(len(c.edgeDst), 1, 0, 1, tensor.NewRNG(13))

		ft := autograd.NewTape()
		fs, fd := ft.Leaf(c.src, true, "src"), ft.Leaf(c.dst, true, "dst")
		fused := ft.EdgeSoftmax(fs, c.srcRow, fd, c.offsets, slope)
		ft.Backward(fused, seed)

		ut := autograd.NewTape()
		us, ud := ut.Leaf(c.src, true, "src"), ut.Leaf(c.dst, true, "dst")
		ref := unfusedEdgeSoftmax(ut, us, ud, c)
		ut.Backward(ref, seed)

		requireBitEqual(t, c.name+" alpha", fused.Value, ref.Value)
		requireGradBitEqual(t, c.name+" dsrc", fs.Grad, us.Grad)
		requireGradBitEqual(t, c.name+" ddst", fd.Grad, ud.Grad)
	}
}

// TestEdgeSoftmaxStableAtExtremes: scores at ±1e30 next to ordinary ones
// still give every non-empty segment weights that sum to 1, and neither α
// nor a gradient is NaN.
func TestEdgeSoftmaxStableAtExtremes(t *testing.T) {
	rng := tensor.NewRNG(17)
	extreme := func(x *tensor.Tensor) *tensor.Tensor {
		y := x.Clone()
		for i := range y.Data() {
			switch rng.Intn(3) {
			case 0:
				y.Data()[i] = 1e30
			case 1:
				y.Data()[i] = -1e30
			}
		}
		return y
	}
	noNaN := func(name string, x *tensor.Tensor) {
		t.Helper()
		for i, v := range x.Data() {
			if math.IsNaN(float64(v)) {
				t.Fatalf("%s: element %d is NaN", name, i)
			}
		}
	}
	for _, c := range edgeCases() {
		tp := autograd.NewTape()
		s, d := tp.Leaf(extreme(c.src), true, "src"), tp.Leaf(extreme(c.dst), true, "dst")
		alpha := tp.EdgeSoftmax(s, c.srcRow, d, c.offsets, slope)
		noNaN(c.name+" alpha", alpha.Value)
		p := alpha.Value.Data()
		for seg := 0; seg+1 < len(c.offsets); seg++ {
			lo, hi := c.offsets[seg], c.offsets[seg+1]
			if lo == hi {
				continue
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += float64(p[i])
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("%s: segment %d sums to %v", c.name, seg, sum)
			}
		}
		tp.Backward(alpha, tensor.RandNormal(len(p), 1, 0, 1, rng))
		noNaN(c.name+" dsrc", s.Grad)
		noNaN(c.name+" ddst", d.Grad)
	}
}

// TestEdgeSoftmaxBackwardAllocations counts the tensors Backward draws from
// the tape's arena: the root's gradient accumulator, then src.Grad and
// dst.Grad for whichever requires one — no per-edge temporary.
func TestEdgeSoftmaxBackwardAllocations(t *testing.T) {
	c := edgeCases()[0]
	seed := tensor.RandNormal(len(c.edgeDst), 1, 0, 1, tensor.NewRNG(19))
	for _, tc := range []struct {
		name             string
		srcGrad, dstGrad bool
		want             int64
	}{
		{"constant scores", false, false, 1},
		{"src requires grad", true, false, 2},
		{"dst requires grad", false, true, 2},
		{"both require grad", true, true, 3},
	} {
		pool := tensor.NewPool()
		tp := autograd.NewTapeArena(pool.Arena())
		out := tp.EdgeSoftmax(tp.Leaf(c.src, tc.srcGrad, "src"), c.srcRow,
			tp.Leaf(c.dst, tc.dstGrad, "dst"), c.offsets, slope)
		before := pool.Stats()
		tp.Backward(out, seed)
		after := pool.Stats()
		if got := after.Hits + after.Misses - before.Hits - before.Misses; got != tc.want {
			t.Errorf("%s: Backward drew %d tensors, want %d", tc.name, got, tc.want)
		}
	}
}

// heapPerRun is the heap allocations (a whole number, as
// testing.AllocsPerRun counts them) and bytes f makes per call after a
// warm-up call. It runs on one P with the collector off, so that the arena's
// pool keeps what it holds: a GOMAXPROCS change or a collection would drop
// it.
func heapPerRun(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range n {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64((b.Mallocs - a.Mallocs) / uint64(n)), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// requireTapeRecordOnly fails unless the op step makes, beyond the same step
// without it, exactly the heap allocations of one tape record — its Variable
// and its backward closure — and under 1 KiB: every tensor comes from the
// arena, and the exponentials' 2 KiB chunk buffer stays on the stack.
func requireTapeRecordOnly(t *testing.T, name string, step func(op bool) func()) {
	t.Helper()
	withA, withB := heapPerRun(50, step(true))
	bareA, bareB := heapPerRun(50, step(false))
	if a, b := withA-bareA, withB-bareB; a != 2 || b >= 1024 {
		t.Errorf("%s: forward and backward made %v heap allocations of %v bytes per call, want 2 (the tape record) under 1 KiB", name, a, b)
	}
}

// TestEdgeSoftmaxForwardAllocations: once the arena is warm, EdgeSoftmax's
// forward and backward, over segments of every degree 0–300, draw nothing
// from the heap but the tape's record of the op. Gated behind
// NS_PERF_ALLOCS (meaningless under -race).
func TestEdgeSoftmaxForwardAllocations(t *testing.T) {
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	c := degreeSweepCase(tensor.NewRNG(31))
	seed := tensor.RandNormal(len(c.edgeDst), 1, 0, 1, tensor.NewRNG(37))
	arena := tensor.NewPool().Arena()
	tp := autograd.NewTapeArena(arena)
	requireTapeRecordOnly(t, "EdgeSoftmax", func(op bool) func() {
		return func() {
			tp.Reset()
			s, d := tp.Leaf(c.src, true, "src"), tp.Leaf(c.dst, true, "dst")
			if op {
				tp.Backward(tp.EdgeSoftmax(s, c.srcRow, d, c.offsets, slope), seed)
			}
			arena.Release()
		}
	})
}

// TestCrossEntropyMaskedAllocations: once the arena is warm, the loss
// head's forward and backward, over 16-class rows with a third of them
// masked out, draw nothing from the heap but the tape's record of the op.
// Gated behind NS_PERF_ALLOCS (meaningless under -race).
func TestCrossEntropyMaskedAllocations(t *testing.T) {
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	rng := tensor.NewRNG(41)
	x := tensor.RandNormal(500, 16, 0, 3, rng)
	labels, mask := make([]int32, 500), make([]bool, 500)
	for i := range labels {
		labels[i], mask[i] = int32(rng.Intn(16)), i%3 != 0
	}
	arena := tensor.NewPool().Arena()
	tp := autograd.NewTapeArena(arena)
	requireTapeRecordOnly(t, "CrossEntropyMasked", func(op bool) func() {
		return func() {
			tp.Reset()
			xv := tp.Leaf(x, true, "x")
			if op {
				loss, _ := tp.CrossEntropyMasked(xv, labels, mask)
				tp.Backward(loss, nil)
			}
			arena.Release()
		}
	})
}

// TestSoftmaxOpsRejectBadOffsets: offsets that do not start at 0 or that
// decrease would leave rows outside every segment — stale storage in an
// uncleared output — so both softmax ops panic naming the offset.
func TestSoftmaxOpsRejectBadOffsets(t *testing.T) {
	scores := tensor.RandNormal(5, 1, 0, 1, tensor.NewRNG(23))
	for _, tc := range []struct {
		name    string
		offsets []int32
		want    string
	}{
		{"not from zero", []int32{1, 3, 5}, "offsets[0] = 1, want 0"},
		{"decreasing", []int32{0, 4, 2, 5}, "offsets[2] = 2 is below offsets[1] = 4"},
		{"none", nil, "at least one offset"},
	} {
		ops := map[string]func(tp *autograd.Tape){
			"SegmentSoftmax": func(tp *autograd.Tape) {
				tp.SegmentSoftmax(tp.Leaf(scores, true, "s"), tc.offsets)
			},
			"EdgeSoftmax": func(tp *autograd.Tape) {
				dst := tensor.New(max(len(tc.offsets)-1, 0), 1)
				tp.EdgeSoftmax(tp.Leaf(scores, true, "s"), nil, tp.Leaf(dst, true, "d"), tc.offsets, slope)
			},
		}
		for op, run := range ops {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%s %s: no panic", op, tc.name)
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, op) || !strings.Contains(msg, tc.want) {
						t.Fatalf("%s %s: panic %q does not name %q", op, tc.name, msg, tc.want)
					}
				}()
				run(autograd.NewTape())
			}()
		}
	}
}
