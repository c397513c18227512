package nn

import (
	"neutronstar/internal/autograd"
	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// RunBlock runs layer's Forward over one destination block: edges read src
// (already pre-transformed if the layer is a PreTransformer) through
// b.SrcRow, and destinations read their own rows from self through b.SelfRow,
// or take self as it is when b.SelfRow is nil. It is the one place a block
// becomes a ForwardCtx.
func RunBlock(t *autograd.Tape, layer Layer, b *graph.Block, src, self *autograd.Variable,
	training bool, rng *tensor.RNG) *autograd.Variable {
	if b.SelfRow != nil {
		self = t.Gather(self, b.SelfRow)
	}
	return layer.Forward(&ForwardCtx{
		Tape:     t,
		Src:      src,
		SrcRow:   b.SrcRow,
		Self:     self,
		Offsets:  b.Offsets,
		EdgeDst:  b.EdgeDst,
		EdgeNorm: b.EdgeNorm,
		SelfNorm: b.SelfNorm,
		Training: training,
		RNG:      rng,
	})
}

// Infer is the one inference pass of a layer over a block whose
// destinations' rows lead h (b.SelfRow nil): h is pre-transformed, the block
// run with dropout off, and the parameters bound on the way unbound again.
// The destinations' rows are read as a view of the pre-transformed rows, not
// a copy. Every intermediate, the result included, comes from scratch (the
// heap when nil).
func Infer(layer Layer, b *graph.Block, h *tensor.Tensor, scratch *tensor.Arena) *tensor.Tensor {
	tape := autograd.NewTapeArena(scratch)
	rows := tape.Constant(h, "h")
	if pt, ok := layer.(PreTransformer); ok {
		rows = pt.PreTransform(tape, rows, false, nil)
	}
	self := tape.Constant(rows.Value.RowSlice(0, b.NumDst()), "self")
	out := RunBlock(tape, layer, b, rows, self, false, nil)
	for _, p := range layer.Params() {
		p.CollectGrad()
	}
	return out.Value
}

// TrainStep runs one forward/backward pass of m over blocks, one per layer
// input-first, from the input rows h: one tape per layer, each layer's rows
// pre-transformed before its block runs, the masked cross-entropy of the top
// layer's rows against labels, and each layer's input gradient seeding the
// layer below. Parameter gradients accumulate into each Param's Grad. It
// returns the loss and, when featGrad is set, the gradient with respect to h
// (zeros if none flowed).
func (m *Model) TrainStep(blocks []*graph.Block, h *tensor.Tensor, labels []int32, mask []bool,
	featGrad, training bool, rng *tensor.RNG) (float64, *tensor.Tensor) {

	type run struct {
		tape    *autograd.Tape
		in, out *autograd.Variable
	}
	runs := make([]run, len(m.Layers))
	x := h
	for li, layer := range m.Layers {
		tape := autograd.NewTape()
		in := tape.Leaf(x, li > 0 || featGrad, "h")
		rows := in
		if pt, ok := layer.(PreTransformer); ok {
			rows = pt.PreTransform(tape, in, training, rng)
		}
		out := RunBlock(tape, layer, blocks[li], rows, rows, training, rng)
		runs[li] = run{tape: tape, in: in, out: out}
		x = out.Value
	}
	top := runs[len(runs)-1]
	loss, _ := top.tape.CrossEntropyMasked(top.out, labels, mask)
	top.tape.Backward(loss, nil)
	for l := len(runs) - 2; l >= 0; l-- {
		seed := runs[l+1].in.Grad
		if seed == nil {
			seed = tensor.New(runs[l].out.Value.Rows(), runs[l].out.Value.Cols())
		}
		runs[l].tape.Backward(runs[l].out, seed)
	}
	for _, p := range m.Params() {
		p.CollectGrad()
	}
	var fg *tensor.Tensor
	if featGrad {
		if fg = runs[0].in.Grad; fg == nil {
			fg = tensor.New(h.Rows(), h.Cols())
		}
	}
	return float64(loss.Value.At(0, 0)), fg
}
