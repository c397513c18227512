// Link prediction: the second canonical GNN task. A GCN encoder produces
// vertex embeddings; a dot-product decoder scores candidate edges; training
// minimises binary cross-entropy over observed edges (positives) and random
// non-edges (negatives). Demonstrates composing the library's autograd and
// layer primitives for a task the classification-oriented Session API does
// not cover, and reports ROC-AUC on held-out edges.
package main

import (
	"fmt"
	"sort"

	"neutronstar/internal/autograd"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

func main() {
	spec := dataset.MustGet("cora")
	ds := dataset.Load(spec)
	fmt.Printf("link prediction on %s: %d vertices, %d edges\n",
		spec.Name, ds.NumVertices(), ds.NumEdges())

	// Split edges: 90% for message passing + training positives, 10% held
	// out for evaluation.
	rng := tensor.NewRNG(7)
	all := ds.Graph.Edges()
	perm := rng.Perm(len(all))
	nTest := len(all) / 10
	testEdges := make([]graph.Edge, 0, nTest)
	trainEdges := make([]graph.Edge, 0, len(all)-nTest)
	for i, p := range perm {
		if i < nTest {
			testEdges = append(testEdges, all[p])
		} else {
			trainEdges = append(trainEdges, all[p])
		}
	}
	g := graph.MustFromEdges(ds.NumVertices(), trainEdges)

	// Encoder: 2-layer GCN to 16-dim embeddings.
	const embDim = 16
	encoder := nn.MustNewModel(nn.GCN, []int{spec.FeatureDim, 32, embDim}, 0, 21)
	opt := nn.NewAdam(0.01)

	block := graph.FullBlock(g)

	const epochs = 40
	for epoch := 1; epoch <= epochs; epoch++ {
		// Encode on a per-layer tape chain.
		type run struct {
			tape *autograd.Tape
			in   *autograd.Variable
			out  *autograd.Variable
		}
		var runs []run
		h := ds.Features
		for li, layer := range encoder.Layers {
			tape := autograd.NewTape()
			in := tape.Leaf(h, li > 0, "h")
			out := nn.RunBlock(tape, layer, block, in, in, true, rng)
			runs = append(runs, run{tape: tape, in: in, out: out})
			h = out.Value
		}
		emb := runs[len(runs)-1]

		// Decoder batch: all training positives + an equal number of random
		// negatives, scored by embedding dot products on the last tape.
		batch := len(trainEdges)
		us := make([]int32, 0, 2*batch)
		vs := make([]int32, 0, 2*batch)
		targets := make([]float32, 0, 2*batch)
		for _, e := range trainEdges {
			us = append(us, e.Src)
			vs = append(vs, e.Dst)
			targets = append(targets, 1)
		}
		for i := 0; i < batch; i++ {
			u := int32(rng.Intn(ds.NumVertices()))
			v := int32(rng.Intn(ds.NumVertices()))
			us = append(us, u)
			vs = append(vs, v)
			targets = append(targets, 0)
		}
		tape := emb.tape
		scores := tape.RowSum(tape.Mul(tape.Gather(emb.out, us), tape.Gather(emb.out, vs)))
		loss := tape.BCEWithLogitsLoss(scores, targets)
		tape.Backward(loss, nil)
		for l := len(runs) - 2; l >= 0; l-- {
			seed := runs[l+1].in.Grad
			if seed == nil {
				seed = tensor.New(runs[l].out.Value.Rows(), runs[l].out.Value.Cols())
			}
			runs[l].tape.Backward(runs[l].out, seed)
		}
		for _, p := range encoder.Params() {
			p.CollectGrad()
		}
		opt.Step(encoder.Params())
		nn.ZeroGrads(encoder.Params())

		if epoch%10 == 0 || epoch == 1 {
			auc := evaluateAUC(g, encoder, ds.Features, testEdges, rng)
			fmt.Printf("epoch %3d  loss %.4f  held-out AUC %.4f\n",
				epoch, loss.Value.At(0, 0), auc)
		}
	}
}

// evaluateAUC computes ROC-AUC of held-out positive edges against an equal
// number of random negatives, using inference-mode embeddings.
func evaluateAUC(g *graph.Graph, encoder *nn.Model, features *tensor.Tensor,
	positives []graph.Edge, rng *tensor.RNG) float64 {

	h := engine.ReferenceForward(g, encoder, features)
	type scored struct {
		score float64
		label int
	}
	var all []scored
	dot := func(u, v int32) float64 {
		return float64(tensor.Dot(h.Row(int(u)), h.Row(int(v))))
	}
	for _, e := range positives {
		all = append(all, scored{score: dot(e.Src, e.Dst), label: 1})
		all = append(all, scored{
			score: dot(int32(rng.Intn(h.Rows())), int32(rng.Intn(h.Rows()))), label: 0})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score < all[j].score })
	// AUC via rank statistic.
	var rankSum float64
	nPos, nNeg := 0, 0
	for rank, s := range all {
		if s.label == 1 {
			rankSum += float64(rank + 1)
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0
	}
	return (rankSum - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
}
