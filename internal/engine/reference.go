package engine

import (
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
	b := graph.FullBlock(g)
	h := features
	for _, layer := range model.Layers {
		h = nn.Infer(layer, b, h, nil)
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

// referenceStep is Model.TrainStep with the whole graph as every layer's
// block and dropout off.
func referenceStep(g *graph.Graph, model *nn.Model, features *tensor.Tensor,
	labels []int32, trainMask []bool, featGrad bool) (float64, *tensor.Tensor) {
	blocks := make([]*graph.Block, model.NumLayers())
	b := graph.FullBlock(g)
	for l := range blocks {
		blocks[l] = b
	}
	return model.TrainStep(blocks, features, labels, trainMask, featGrad, false, nil)
}
