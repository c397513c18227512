package testkit

import (
	"fmt"

	"neutronstar/internal/autograd"
	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// Closure builds one differentiable computation on a fresh tape from the
// leaf variables (one per input tensor, same order) and returns its output.
// CheckClosure calls it repeatedly — once for the analytic pass, twice per
// perturbed element — so it must be deterministic and must read its inputs
// only through the supplied variables.
type Closure func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable

// CheckClosure gradient-checks an arbitrary op composition: the closure's
// output is reduced to a scalar by a fixed random weighting (so every output
// element's gradient path is exercised), the analytic gradients come from
// one tape.Backward with that weighting as seed, and each input tensor is
// finite-differenced. Returns one report per input.
func CheckClosure(name string, inputs []*tensor.Tensor, build Closure,
	seed uint64, eps float64, maxElems int) []GradReport {

	// Analytic pass.
	tape := autograd.NewTape()
	vars := make([]*autograd.Variable, len(inputs))
	for i, x := range inputs {
		vars[i] = tape.Leaf(x, true, "in")
	}
	out := build(tape, vars)
	weights := tensor.RandNormal(out.Value.Rows(), out.Value.Cols(), 0, 1, tensor.NewRNG(seed^0x5EED))
	tape.Backward(out, weights)

	// Numeric side: rebuild on a throwaway tape and reduce in float64.
	lossFor := func() float64 {
		t2 := autograd.NewTape()
		xs := make([]*autograd.Variable, len(inputs))
		for i, x := range inputs {
			xs[i] = t2.Constant(x, "in")
		}
		o := build(t2, xs)
		var s float64
		od, wd := o.Value.Data(), weights.Data()
		for i := range od {
			s += float64(float64(od[i]) * float64(wd[i]))
		}
		return s
	}

	reports := make([]GradReport, 0, len(inputs))
	for i, x := range inputs {
		g := vars[i].Grad
		if g == nil {
			g = tensor.New(x.Rows(), x.Cols())
		}
		label := name
		if len(inputs) > 1 {
			label = fmt.Sprintf("%s/in%d", name, i)
		}
		reports = append(reports, CheckTensorGrad(label, x, g, lossFor, eps, maxElems))
	}
	return reports
}

// OpGraph is the fixture every per-op check runs on: small but structurally
// adversarial — a hub with many in-edges (duplicate gather sources), a
// self-loop, a multi-edge, a zero-in-degree vertex and a zero-out-degree
// vertex. CSC arrays are derived exactly as the engines derive them.
func OpGraph() (g *graph.Graph, srcIdx, dstIdx, offsets []int32) {
	g = graph.MustFromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, // hub fan-out
		{Src: 2, Dst: 1}, {Src: 3, Dst: 1}, {Src: 4, Dst: 1}, // hub fan-in
		{Src: 2, Dst: 2},                   // self-loop
		{Src: 4, Dst: 3}, {Src: 4, Dst: 3}, // multi-edge
		// vertex 5: no in-edges, no out-edges
	})
	srcIdx, dstIdx, offsets = CSC(g)
	return g, srcIdx, dstIdx, offsets
}

// CSC lists g's edges in destination-grouped order — source and destination
// of each edge plus the per-destination offsets — exactly as the engines
// derive a full-graph block.
func CSC(g *graph.Graph) (srcIdx, dstIdx, offsets []int32) {
	n := g.NumVertices()
	offsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(int32(v)) {
			srcIdx = append(srcIdx, u)
			dstIdx = append(dstIdx, int32(v))
		}
		offsets[v+1] = int32(len(srcIdx))
	}
	return srcIdx, dstIdx, offsets
}

// CheckDecoupledOps gradient-checks each decoupled graph operation of the
// paper's programming model (§4.1) in isolation, on the adversarial fixture
// graph: ScatterToEdge (Gather), GatherByDst with the sum and max
// aggregators (ScatterAddRows / ScatterMaxRows), the EdgeForward primitives
// (per-edge normalisation, attention softmax, GAT's fused EdgeSoftmax,
// attention-weighted messages), the fused aggregation kernel in both
// flavours, and the VertexForward primitives (dense transform, bias,
// activations).
// Every backward dual the engines rely on is exercised through at least one
// entry.
func CheckDecoupledOps(seed uint64, eps float64) []GradReport {
	g, srcIdx, dstIdx, offsets := OpGraph()
	n := g.NumVertices()
	e := len(srcIdx)
	const dim = 4
	rng := tensor.NewRNG(seed)
	h := tensor.RandNormal(n, dim, 0, 1, rng)         // vertex rows
	edgeRows := tensor.RandNormal(e, dim, 0, 1, rng)  // per-edge rows
	scores := tensor.RandNormal(e, 1, 0, 1, rng)      // per-edge scores
	w := tensor.RandNormal(dim, dim, 0, 0.7, rng)     // dense weight
	bias := tensor.RandNormal(1, dim, 0, 0.5, rng)    // bias row
	attn := tensor.RandNormal(1, dim, 0, 0.7, rng)    // attention vector
	attnDst := tensor.RandNormal(1, dim, 0, 0.7, rng) // destination-side one
	norm, _ := graph.GCNNormCoefficients(g)

	var out []GradReport
	add := func(name string, inputs []*tensor.Tensor, build Closure) {
		out = append(out, CheckClosure(name, inputs, build, seed, eps, 0)...)
	}

	// GetFromDepNbr + ScatterToEdge: gather vertex rows onto edges; the
	// backward dual scatter-adds duplicate sources.
	add("scatter_to_edge(gather)", []*tensor.Tensor{h},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return t.Gather(xs[0], srcIdx)
		})
	// GatherByDst, sum aggregator; backward gathers by destination.
	add("gather_by_dst(sum)", []*tensor.Tensor{edgeRows},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return t.ScatterAddRows(xs[0], dstIdx, n)
		})
	// GatherByDst, max aggregator; backward routes through the argmax.
	add("gather_by_dst(max)", []*tensor.Tensor{edgeRows},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return t.ScatterMaxRows(xs[0], dstIdx, n)
		})
	// EdgeForward, GCN flavor: per-edge normalisation coefficients.
	add("edge_forward(norm)", []*tensor.Tensor{edgeRows},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return t.MulColVec(xs[0], norm)
		})
	// EdgeForward, GAT flavor: score -> per-destination softmax -> weighted
	// messages (SegmentSoftmax's Jacobian is the hardest dual in the op set).
	add("edge_forward(attention)", []*tensor.Tensor{edgeRows, scores},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			alpha := t.SegmentSoftmax(xs[1], offsets)
			return t.ScatterAddRows(t.BroadcastColMul(xs[0], alpha), dstIdx, n)
		})
	// GAT score construction: per-row dot with the attention vector plus
	// LeakyReLU, including the gather of destination scores onto edges.
	add("edge_forward(score)", []*tensor.Tensor{h, attn},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			src := t.RowDot(t.Gather(xs[0], srcIdx), xs[1])
			dst := t.Gather(t.RowDot(xs[0], xs[1]), dstIdx)
			return t.LeakyReLU(t.Add(src, dst), 0.2)
		})
	// The same scores and the softmax as GAT runs them, in one op: both score
	// columns are read through the edge index, differentiable in each.
	add("edge_forward(edge_softmax)", []*tensor.Tensor{h, attn, attnDst},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return t.EdgeSoftmax(t.RowDot(xs[0], xs[1]), srcIdx, t.RowDot(xs[0], xs[2]), offsets, 0.2)
		})
	// The fused execution of ScatterToEdge · EdgeForward · GatherByDst that the
	// sum-type layers run, constant-coefficient flavour (GCN, GIN) …
	add("aggregate(norm)", []*tensor.Tensor{h},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return t.Aggregate(xs[0], srcIdx, norm, dstIdx, n)
		})
	// … and attention flavour (GAT): differentiable in the vertex rows and,
	// through the softmax, in the per-edge scores.
	add("aggregate(attention)", []*tensor.Tensor{h, scores},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			alpha := t.SegmentSoftmax(xs[1], offsets)
			return t.AggregateWeighted(xs[0], srcIdx, alpha, dstIdx, n)
		})
	// VertexForward: dense transform + bias + ReLU over aggregated rows.
	add("vertex_forward(dense)", []*tensor.Tensor{h, w, bias},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			return t.ReLU(t.AddBias(t.MatMul(xs[0], xs[1]), xs[2]))
		})
	// The full decoupled pipeline of one GCN layer, chained end to end:
	// gather -> edge norm -> scatter-add -> dense. Catches sign/ordering
	// bugs that only appear when duals compose.
	add("pipeline(gcn_layer)", []*tensor.Tensor{h, w, bias},
		func(t *autograd.Tape, xs []*autograd.Variable) *autograd.Variable {
			msgs := t.MulColVec(t.Gather(xs[0], srcIdx), norm)
			agg := t.ScatterAddRows(msgs, dstIdx, n)
			return t.AddBias(t.MatMul(agg, xs[1]), xs[2])
		})
	return out
}
