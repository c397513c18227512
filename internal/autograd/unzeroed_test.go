package autograd_test

import (
	"math"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
	"neutronstar/internal/testkit"
)

// poisonedPool returns a pool whose buckets up to 2^12 elements are stocked
// with NaN-filled buffers (Get, fill, Put): an op that draws storage
// uncleared and reads an element before writing it turns it into a NaN.
func poisonedPool() *tensor.Pool {
	pool := tensor.NewPool()
	var held []*tensor.Tensor
	for b := 0; b <= 12; b++ {
		for i := 0; i < 24; i++ {
			x := pool.Get(1, 1<<b)
			x.Fill(float32(math.NaN()))
			held = append(held, x)
		}
	}
	for _, x := range held {
		pool.Put(x)
	}
	return pool
}

// TestUnzeroedOutputsIgnoreRecycledStorage runs, forward and backward, every
// op whose output (or backward temporary) the tape draws uncleared — and a
// GAT layer chaining them — once on a tape over a NaN-poisoned pool and once
// on a heap tape. Values and every leaf gradient must agree to the bit:
// whatever a recycled buffer held is overwritten before it is read, and
// every accumulator still starts from zero.
func TestUnzeroedOutputsIgnoreRecycledStorage(t *testing.T) {
	g, srcIdx, dstIdx, offsets := testkit.OpGraph()
	n, e := g.NumVertices(), len(srcIdx)
	const dim = 4
	rng := tensor.NewRNG(31)
	h := tensor.RandNormal(n, dim, 0, 1, rng)
	h2 := tensor.RandNormal(n, dim, 0, 1, rng)
	edgeRows := tensor.RandNormal(e, dim, 0, 1, rng)
	scores := tensor.RandNormal(e, 1, 0, 1, rng)
	srcScores := tensor.RandNormal(n, 1, 0, 1, rng)
	dstScores := tensor.RandNormal(n, 1, 0, 1, rng)
	w := tensor.RandNormal(dim, dim, 0, 0.7, rng)
	bias := tensor.RandNormal(1, dim, 0, 0.5, rng)
	attn := tensor.RandNormal(1, dim, 0, 0.7, rng)
	attnDst := tensor.RandNormal(1, dim, 0, 0.7, rng)
	norm, _ := graph.GCNNormCoefficients(g)
	labels, mask := make([]int32, n), make([]bool, n)
	for i := range labels {
		labels[i], mask[i] = int32(rng.Intn(dim)), i%3 != 1
	}

	type vars = []*autograd.Variable
	cases := []struct {
		name   string
		inputs []*tensor.Tensor
		build  func(tp *autograd.Tape, xs vars) *autograd.Variable
	}{
		{"gather", []*tensor.Tensor{h}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.Gather(xs[0], srcIdx)
		}},
		{"add", []*tensor.Tensor{h, h2}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.Add(xs[0], xs[1])
		}},
		{"add_bias", []*tensor.Tensor{h, bias}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.AddBias(xs[0], xs[1])
		}},
		{"add_bias_relu", []*tensor.Tensor{h, bias}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.AddBiasReLU(xs[0], xs[1])
		}},
		{"mul_colvec", []*tensor.Tensor{edgeRows}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.MulColVec(xs[0], norm)
		}},
		{"row_dot", []*tensor.Tensor{h, attn}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.RowDot(xs[0], xs[1])
		}},
		{"concat_rows", []*tensor.Tensor{h, edgeRows}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.ConcatRows(xs[0], xs[1])
		}},
		{"cross_entropy", []*tensor.Tensor{h}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			loss, _ := tp.CrossEntropyMasked(xs[0], labels, mask)
			return loss
		}},
		{"matmul", []*tensor.Tensor{h, w}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.MatMul(xs[0], xs[1])
		}},
		{"linear", []*tensor.Tensor{h, w, bias}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.Linear(xs[0], xs[1], xs[2], false)
		}},
		{"linear_relu", []*tensor.Tensor{h, w, bias}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.Linear(xs[0], xs[1], xs[2], true)
		}},
		{"scale", []*tensor.Tensor{h}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.Scale(xs[0], 1.5)
		}},
		{"mul_relu", []*tensor.Tensor{h, h2}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.ReLU(tp.Mul(xs[0], xs[1]))
		}},
		{"segment_softmax", []*tensor.Tensor{scores}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.SegmentSoftmax(xs[0], offsets)
		}},
		{"edge_softmax", []*tensor.Tensor{srcScores, dstScores}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			return tp.EdgeSoftmax(xs[0], srcIdx, xs[1], offsets, slope)
		}},
		{"gat_layer", []*tensor.Tensor{h, w, attn, attnDst, bias}, func(tp *autograd.Tape, xs vars) *autograd.Variable {
			z := tp.MatMul(xs[0], xs[1])
			alpha := tp.EdgeSoftmax(tp.RowDot(z, xs[2]), srcIdx, tp.RowDot(z, xs[3]), offsets, slope)
			agg := tp.AggregateWeighted(z, srcIdx, alpha, dstIdx, n)
			loss, _ := tp.CrossEntropyMasked(tp.AddBiasReLU(tp.Add(agg, z), xs[4]), labels, mask)
			return loss
		}},
	}
	type result struct{ out, grads []*tensor.Tensor }
	run := func(tp *autograd.Tape, inputs []*tensor.Tensor, build func(*autograd.Tape, vars) *autograd.Variable) result {
		xs := make(vars, len(inputs))
		for i, in := range inputs {
			xs[i] = tp.Leaf(in, true, "in")
		}
		out := build(tp, xs)
		tp.Backward(out, tensor.RandNormal(out.Value.Rows(), out.Value.Cols(), 0, 1, tensor.NewRNG(37)))
		r := result{out: []*tensor.Tensor{out.Value}}
		for _, x := range xs {
			r.grads = append(r.grads, x.Grad)
		}
		return r
	}
	for _, c := range cases {
		want := run(autograd.NewTape(), c.inputs, c.build)
		pool := poisonedPool()
		arena := pool.Arena()
		got := run(autograd.NewTapeArena(arena), c.inputs, c.build)
		if pool.Stats().Hits == 0 {
			t.Fatalf("%s: no draw reused a poisoned buffer", c.name)
		}
		requireBitEqual(t, c.name+" value", got.out[0], want.out[0])
		for i := range want.grads {
			requireGradBitEqual(t, c.name+" grad", got.grads[i], want.grads[i])
		}
		arena.Release()
	}
}
