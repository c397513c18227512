package engine

import (
	"neutronstar/internal/autograd"
	"neutronstar/internal/dataset"
	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

// ReferenceForward runs a single-machine, full-graph inference pass through
// model: the ground truth all distributed engines must match. Dropout is
// disabled (inference mode). It returns the final-layer logits for every
// vertex.
func ReferenceForward(g *graph.Graph, model *nn.Model, features *tensor.Tensor) *tensor.Tensor {
	h := features
	for _, layer := range model.Layers {
		h = referenceLayer(g, layer, h)
	}
	return h
}

// ReferenceAccuracy is the share of the vertices selected by mask whose
// argmax ReferenceForward logit is their label (0 for an empty mask): the one
// evaluator of the engines and the sampling baseline alike.
func ReferenceAccuracy(ds *dataset.Dataset, model *nn.Model, mask []bool) float64 {
	pred := tensor.ArgMaxRows(ReferenceForward(ds.Graph, model, ds.Features))
	correct, total := 0, 0
	for v, m := range mask {
		if !m {
			continue
		}
		total++
		if int32(pred[v]) == ds.Labels[v] {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// ReferenceTrainStep runs one full-graph training step on a single machine
// and returns the mean loss over the labeled set. Engines' distributed
// gradients are validated against the parameter gradients this produces.
// Dropout is disabled so the comparison is deterministic.
func ReferenceTrainStep(g *graph.Graph, model *nn.Model, features *tensor.Tensor,
	labels []int32, trainMask []bool) float64 {
	loss, _ := referenceStep(g, model, features, labels, trainMask, false)
	return loss
}

// ReferenceBackward is ReferenceTrainStep with the input features registered
// as a differentiable leaf: alongside the loss it returns dLoss/dFeatures,
// the V x d^(0) gradient of the mean training loss with respect to every
// vertex's raw feature row. Parameter gradients accumulate into
// model.Params()[i].Grad exactly as in ReferenceTrainStep. The feature
// gradient is what the testkit finite-difference checker validates per-vertex
// — a regression in any backward dual (ScatterBackToEdge / GatherBySrc) shows
// up here even when the parameter path happens to cancel it.
func ReferenceBackward(g *graph.Graph, model *nn.Model, features *tensor.Tensor,
	labels []int32, trainMask []bool) (float64, *tensor.Tensor) {
	return referenceStep(g, model, features, labels, trainMask, true)
}

// referenceStep is the shared forward/backward ladder: one tape per layer,
// gradients handed down through each layer's input leaf. When featGrad is
// set, layer 0's input requires grad and its accumulated gradient is
// returned (zero tensor if no gradient flowed).
func referenceStep(g *graph.Graph, model *nn.Model, features *tensor.Tensor,
	labels []int32, trainMask []bool, featGrad bool) (float64, *tensor.Tensor) {

	type run struct {
		tape *autograd.Tape
		in   *autograd.Variable
		out  *autograd.Variable
	}
	var runs []run
	h := features
	for li, layer := range model.Layers {
		tape := autograd.NewTape()
		in := tape.Leaf(h, li > 0 || featGrad, "h")
		out := forwardOnTape(g, layer, tape, in)
		runs = append(runs, run{tape: tape, in: in, out: out})
		h = out.Value
	}
	last := runs[len(runs)-1]
	loss, _ := last.tape.CrossEntropyMasked(last.out, labels, trainMask)
	last.tape.Backward(loss, nil)
	for l := len(runs) - 2; l >= 0; l-- {
		seed := runs[l+1].in.Grad
		if seed == nil {
			seed = tensor.New(runs[l].out.Value.Rows(), runs[l].out.Value.Cols())
		}
		runs[l].tape.Backward(runs[l].out, seed)
	}
	for _, p := range model.Params() {
		p.CollectGrad()
	}
	var fg *tensor.Tensor
	if featGrad {
		fg = runs[0].in.Grad
		if fg == nil {
			fg = tensor.New(features.Rows(), features.Cols())
		}
	}
	return float64(loss.Value.At(0, 0)), fg
}

// referenceLayer evaluates one layer over the whole graph without autograd
// bookkeeping beyond a throwaway tape.
func referenceLayer(g *graph.Graph, layer nn.Layer, h *tensor.Tensor) *tensor.Tensor {
	tape := autograd.NewTape()
	in := tape.Constant(h, "h")
	out := forwardOnTape(g, layer, tape, in)
	// Detach parameters bound during inference so a later training pass does
	// not try to collect stale gradients.
	for _, p := range layer.Params() {
		p.CollectGrad()
	}
	return out.Value
}

// forwardOnTape builds the full-graph ForwardCtx for layer and runs it with
// dropout off, so no RNG is drawn.
func forwardOnTape(g *graph.Graph, layer nn.Layer, tape *autograd.Tape, in *autograd.Variable) *autograd.Variable {
	rows := in
	if pt, ok := layer.(nn.PreTransformer); ok {
		rows = pt.PreTransform(tape, in, false, nil)
	}
	n := g.NumVertices()
	srcIdx := make([]int32, 0, g.NumEdges())
	dstIdx := make([]int32, 0, g.NumEdges())
	offsets := make([]int32, n+1)
	selfIdx := make([]int32, n)
	for v := 0; v < n; v++ {
		selfIdx[v] = int32(v)
		for _, u := range g.InNeighbors(int32(v)) {
			srcIdx = append(srcIdx, u)
			dstIdx = append(dstIdx, int32(v))
		}
		offsets[v+1] = int32(len(srcIdx))
	}
	edgeNorm, selfNorm := graph.GCNNormCoefficients(g)
	ctx := &nn.ForwardCtx{
		Tape:     tape,
		Src:      rows,
		SrcRow:   srcIdx,
		Self:     rows,
		Offsets:  offsets,
		EdgeDst:  dstIdx,
		EdgeNorm: edgeNorm,
		SelfNorm: selfNorm,
	}
	return layer.Forward(ctx)
}
