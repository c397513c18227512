package nn_test

import (
	"math"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
	"neutronstar/internal/testkit"
)

// layerFixture assembles the CSC arrays one ForwardCtx needs, on a small
// graph with a hub, a self-loop, a multi-edge and an isolated vertex.
func layerFixture() (g *graph.Graph, srcIdx, dstIdx, offsets []int32) {
	g = graph.MustFromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 2, Dst: 1}, {Src: 3, Dst: 1},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 2},
		{Src: 3, Dst: 0}, {Src: 3, Dst: 0},
	})
	srcIdx, dstIdx, offsets = testkit.CSC(g)
	return g, srcIdx, dstIdx, offsets
}

// TestLayerForwardGradients differentiates every layer kind's full
// EdgeStage, Combine and Transform data path with respect to the incoming
// vertex representations (parameter gradients are covered end to end by
// testkit.CheckModelGrads); a broken dual in any layer's op composition
// surfaces here with the layer named. Each kind runs through both ForwardCtx
// entries — Src+SrcRow as the engines pass them, and pre-gathered EdgeSrc
// only — whose outputs must agree bit for bit.
func TestLayerForwardGradients(t *testing.T) {
	g, srcIdx, dstIdx, offsets := layerFixture()
	norm, selfNorm := graph.GCNNormCoefficients(g)
	h := tensor.RandNormal(g.NumVertices(), 4, 0, 1, tensor.NewRNG(21))
	for i, kind := range nn.ModelKinds() {
		layer := nn.MustNewModel(kind, []int{4, 3, 2}, 0, uint64(30+i)).Layers[0]
		var outputs []*tensor.Tensor
		for _, entry := range []string{"Src+SrcRow", "EdgeSrc"} {
			build := func(tp *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
				z := xs[0]
				if pt, ok := layer.(nn.PreTransformer); ok {
					z = pt.PreTransform(tp, z, false, nil)
				}
				ctx := &nn.ForwardCtx{
					Tape: tp, Self: z, Offsets: offsets, EdgeDst: dstIdx,
					EdgeNorm: norm, SelfNorm: selfNorm,
				}
				if entry == "EdgeSrc" {
					ctx.EdgeSrc = tp.Gather(z, srcIdx)
				} else {
					ctx.Src, ctx.SrcRow = z, srcIdx
				}
				return layer.Forward(ctx)
			}
			name := "layer/" + string(kind) + "/" + entry
			for _, r := range testkit.CheckClosure(name, []*tensor.Tensor{h}, build, 77, 1e-3, 0) {
				if r.RelErr >= 1e-3 {
					t.Errorf("FAIL %s", r)
				} else {
					t.Logf("ok   %s", r)
				}
			}
			tp := autograd.NewTape()
			outputs = append(outputs, build(tp, []*autograd.Variable{tp.Constant(h, "h")}).Value)
		}
		for j, v := range outputs[0].Data() {
			if math.Float32bits(v) != math.Float32bits(outputs[1].Data()[j]) {
				t.Errorf("%s: output %d = %v through Src+SrcRow, %v through EdgeSrc", kind, j, v, outputs[1].Data()[j])
				break
			}
		}
	}
}
