package nn

import (
	"math"
	"slices"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// buildCtx assembles a ForwardCtx for a full small graph on a fresh tape:
// all vertices are destinations; EdgeSrc gathers raw (or pre-transformed)
// rows in CSC order. Returns the ctx and the input leaf.
func buildCtx(t *testing.T, g *graph.Graph, layer Layer, h *tensor.Tensor, training bool) (*ForwardCtx, *autograd.Variable) {
	t.Helper()
	tape := autograd.NewTape()
	n := g.NumVertices()
	hVar := tape.Leaf(h, true, "h")
	rows := hVar
	if pt, ok := layer.(PreTransformer); ok {
		rows = pt.PreTransform(tape, hVar, training, tensor.NewRNG(1))
	}
	srcIdx := make([]int32, 0, g.NumEdges())
	dstIdx := make([]int32, 0, g.NumEdges())
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(int32(v)) {
			srcIdx = append(srcIdx, u)
			dstIdx = append(dstIdx, int32(v))
		}
		offsets[v+1] = int32(len(srcIdx))
	}
	edgeNorm, selfNorm := graph.GCNNormCoefficients(g)
	ctx := &ForwardCtx{
		Tape:     tape,
		EdgeSrc:  tape.Gather(rows, srcIdx),
		Self:     rows,
		Offsets:  offsets,
		EdgeDst:  dstIdx,
		EdgeNorm: edgeNorm,
		SelfNorm: selfNorm,
		Training: training,
		RNG:      tensor.NewRNG(2),
	}
	return ctx, hVar
}

func toyGraph() *graph.Graph {
	return graph.MustFromEdges(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 0}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3},
	})
}

func TestLayerShapes(t *testing.T) {
	g := toyGraph()
	rng := tensor.NewRNG(3)
	h := tensor.RandNormal(5, 8, 0, 1, rng)
	layers := []Layer{
		NewGCNLayer(8, 4, true, 0, rng),
		NewGINLayer(8, 4, true, 0, rng),
		NewGATLayer(8, 4, true, 0, rng),
		NewSAGELayer(8, 4, true, 0, rng),
	}
	for _, l := range layers {
		if l.InDim() != 8 || l.OutDim() != 4 {
			t.Fatalf("%T dims wrong", l)
		}
		ctx, _ := buildCtx(t, g, l, h.Clone(), false)
		out := l.Forward(ctx)
		if out.Value.Rows() != 5 || out.Value.Cols() != 4 {
			t.Fatalf("%T output %dx%d", l, out.Value.Rows(), out.Value.Cols())
		}
	}
}

func TestLayerGradientsFlowToParamsAndInput(t *testing.T) {
	g := toyGraph()
	rng := tensor.NewRNG(4)
	h := tensor.RandNormal(5, 8, 0, 1, rng)
	for _, mk := range []func() Layer{
		func() Layer { return NewGCNLayer(8, 4, true, 0, rng) },
		func() Layer { return NewGINLayer(8, 4, true, 0, rng) },
		func() Layer { return NewGATLayer(8, 4, true, 0, rng) },
		func() Layer { return NewSAGELayer(8, 4, true, 0, rng) },
	} {
		l := mk()
		ctx, hVar := buildCtx(t, g, l, h.Clone(), true)
		out := l.Forward(ctx)
		seed := tensor.New(out.Value.Rows(), out.Value.Cols())
		seed.Fill(1)
		ctx.Tape.Backward(out, seed)
		for _, p := range l.Params() {
			p.CollectGrad()
		}
		var gotParamGrad bool
		for _, p := range l.Params() {
			if tensor.Norm(p.Grad) > 0 {
				gotParamGrad = true
			}
		}
		if !gotParamGrad {
			t.Fatalf("%T: no parameter received gradient", l)
		}
		if hVar.Grad == nil || tensor.Norm(hVar.Grad) == 0 {
			t.Fatalf("%T: input received no gradient", l)
		}
	}
}

func TestGCNAggregationValues(t *testing.T) {
	// Two sources into one destination with known norms: verify the
	// aggregation arithmetic end-to-end with identity weights.
	g := graph.MustFromEdges(3, []graph.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}})
	rng := tensor.NewRNG(5)
	l := NewGCNLayer(2, 2, false, 0, rng)
	// Identity weight, zero bias.
	l.w.Value.Zero()
	l.w.Value.Set(0, 0, 1)
	l.w.Value.Set(1, 1, 1)
	h := tensor.FromRows([][]float32{{1, 0}, {0, 1}, {0, 0}})
	ctx, _ := buildCtx(t, g, l, h, false)
	out := l.Forward(ctx)
	// norm for each edge = 1/sqrt(3*1); vertex 2 self term is 0.
	want := 1 / math.Sqrt(3)
	if math.Abs(float64(out.Value.At(2, 0))-want) > 1e-5 ||
		math.Abs(float64(out.Value.At(2, 1))-want) > 1e-5 {
		t.Fatalf("aggregated = %v,%v want %v", out.Value.At(2, 0), out.Value.At(2, 1), want)
	}
	// Vertex 0 has no in-edges: output = selfnorm * h0 = 1 * (1,0).
	if math.Abs(float64(out.Value.At(0, 0))-1) > 1e-5 {
		t.Fatalf("self-only vertex = %v", out.Value.At(0, 0))
	}
}

func TestGATAttentionSumsToOne(t *testing.T) {
	g := toyGraph()
	rng := tensor.NewRNG(6)
	l := NewGATLayer(4, 4, false, 0, rng)
	// With W=I and all-equal rows, attention is uniform; aggregate equals z.
	l.w.Value.Zero()
	for i := 0; i < 4; i++ {
		l.w.Value.Set(i, i, 1)
	}
	h := tensor.New(5, 4)
	h.Fill(2)
	ctx, _ := buildCtx(t, g, l, h, false)
	out := l.Forward(ctx)
	// Every vertex with >=1 in-edge aggregates exactly z (rows all equal,
	// attention convex) plus the self residual z: out = 4 across dims.
	for v := 0; v < 5; v++ {
		if g.InDegree(int32(v)) == 0 {
			continue
		}
		for j := 0; j < 4; j++ {
			if math.Abs(float64(out.Value.At(v, j))-4) > 1e-4 {
				t.Fatalf("v%d out = %v, want 4", v, out.Value.At(v, j))
			}
		}
	}
}

func TestParamBindReuseOnSameTape(t *testing.T) {
	p := NewParam("w", tensor.FromRows([][]float32{{1}}))
	tape := autograd.NewTape()
	v1 := p.Bind(tape)
	v2 := p.Bind(tape)
	if v1 != v2 {
		t.Fatal("Bind on same tape returned different variables")
	}
	tape2 := autograd.NewTape()
	if p.Bind(tape2) == v1 {
		t.Fatal("Bind on new tape returned stale variable")
	}
}

func TestParamCollectGradAccumulates(t *testing.T) {
	p := NewParam("w", tensor.FromRows([][]float32{{1, 1}}))
	tape := autograd.NewTape()
	v := p.Bind(tape)
	x := tape.Leaf(tensor.FromRows([][]float32{{2, 3}}), false, "x")
	out := tape.Mul(v, x)
	seed := tensor.FromRows([][]float32{{1, 1}})
	tape.Backward(out, seed)
	p.CollectGrad()
	if p.Grad.At(0, 0) != 2 || p.Grad.At(0, 1) != 3 {
		t.Fatalf("grad = %v", p.Grad)
	}
	// CollectGrad with no binding is a no-op.
	p.CollectGrad()
	if p.Grad.At(0, 0) != 2 {
		t.Fatal("second CollectGrad changed grad")
	}
	p.ZeroGrad()
	if tensor.Norm(p.Grad) != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestModelConstruction(t *testing.T) {
	for _, kind := range ModelKinds() {
		m, err := NewModel(kind, []int{16, 8, 4}, 0.1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if m.NumLayers() != 2 {
			t.Fatalf("%s layers = %d", kind, m.NumLayers())
		}
		dims := m.Dims()
		if len(dims) != 3 || dims[0] != 16 || dims[1] != 8 || dims[2] != 4 {
			t.Fatalf("%s dims = %v", kind, dims)
		}
		if len(m.Params()) == 0 {
			t.Fatalf("%s has no params", kind)
		}
		// The engine plans on the kind and executes on the layer: a
		// slice-separable kind's layers must be the sum-decomposable ones
		// (its layer 1 binds Combine's output, its TP layers slice).
		for i, l := range m.Layers {
			if _, sd := l.(SumDecomposable); sd != SliceSeparable(kind) {
				t.Fatalf("%s layer %d: SumDecomposable %v, SliceSeparable %v", kind, i+1, sd, SliceSeparable(kind))
			}
		}
	}
	if _, err := NewModel("bogus", []int{4, 2}, 0, 1); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := NewModel(GCN, []int{4}, 0, 1); err == nil {
		t.Fatal("expected error for short dims")
	}
}

func TestNewModelSeedDeterminism(t *testing.T) {
	a := MustNewModel(GCN, []int{8, 4, 2}, 0, 11)
	b := MustNewModel(GCN, []int{8, 4, 2}, 0, 11)
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param counts differ")
	}
	for i := range pa {
		if !pa[i].Value.Equal(pb[i].Value) {
			t.Fatalf("param %d differs between same-seed models", i)
		}
	}
	c := MustNewModel(GCN, []int{8, 4, 2}, 0, 12)
	if c.Params()[0].Value.Equal(pa[0].Value) {
		t.Fatal("different seed produced identical weights")
	}
}

// TestModelCloneIsAnInferenceCopy: a clone has m's values and no dropout, and
// stepping m afterwards does not move it.
func TestModelCloneIsAnInferenceCopy(t *testing.T) {
	for _, kind := range ModelKinds() {
		m := MustNewModel(kind, []int{8, 4, 2}, 0.5, 3)
		c := m.Clone()
		if c.Name != m.Name || !slices.Equal(c.Dims(), m.Dims()) {
			t.Fatalf("%s: clone is %s %v, want %s %v", kind, c.Name, c.Dims(), m.Name, m.Dims())
		}
		pm, pc := m.Params(), c.Params()
		before := make([]*tensor.Tensor, len(pc))
		for i := range pc {
			if pc[i].Value == pm[i].Value || !pc[i].Value.Equal(pm[i].Value) {
				t.Fatalf("%s: param %d is not an equal copy", kind, i)
			}
			before[i] = pc[i].Value.Clone()
			pm[i].Grad.Fill(1)
		}
		NewAdam(0.1).Step(pm)
		for i := range pc {
			if pc[i].Value.Equal(pm[i].Value) || !pc[i].Value.Equal(before[i]) {
				t.Fatalf("%s: stepping the original moved the clone's param %d", kind, i)
			}
		}
		for i := range c.Layers {
			if dropoutOf(m.Layers[i]) != 0.5 || dropoutOf(c.Layers[i]) != 0 {
				t.Fatalf("%s layer %d: dropout %v, clone's %v", kind, i, dropoutOf(m.Layers[i]), dropoutOf(c.Layers[i]))
			}
		}
	}
}

func dropoutOf(l Layer) float32 {
	switch l := l.(type) {
	case *GCNLayer:
		return l.dropout
	case *GINLayer:
		return l.dropout
	case *GATLayer:
		return l.dropout
	case *SAGELayer:
		return l.dropout
	}
	panic("unknown layer type")
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise (w-3)^2 by feeding grad = 2(w-3).
	p := NewParam("w", tensor.FromRows([][]float32{{0}}))
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Set(0, 0, 2*(p.Value.At(0, 0)-3))
		opt.Step([]*Param{p})
	}
	if math.Abs(float64(p.Value.At(0, 0))-3) > 0.05 {
		t.Fatalf("adam converged to %v, want 3", p.Value.At(0, 0))
	}
}

func TestAdamDeterministicAcrossReplicas(t *testing.T) {
	mk := func() (*Param, *Adam) {
		return NewParam("w", tensor.FromRows([][]float32{{1, -1}})), NewAdam(0.05)
	}
	p1, o1 := mk()
	p2, o2 := mk()
	for i := 0; i < 20; i++ {
		g := float32(i%3) - 1
		p1.Grad.Fill(g)
		p2.Grad.Fill(g)
		o1.Step([]*Param{p1})
		o2.Step([]*Param{p2})
	}
	if !p1.Value.Equal(p2.Value) {
		t.Fatal("replicated Adam diverged")
	}
}

func TestZeroGrads(t *testing.T) {
	ps := []*Param{
		NewParam("a", tensor.New(2, 2)),
		NewParam("b", tensor.New(1, 3)),
	}
	ps[0].Grad.Fill(1)
	ps[1].Grad.Fill(2)
	ZeroGrads(ps)
	for _, p := range ps {
		if tensor.Norm(p.Grad) != 0 {
			t.Fatal("ZeroGrads missed a param")
		}
	}
}

// End-to-end: a 2-layer GCN trained on a tiny planted two-cluster graph must
// fit the training labels — validates layers, autograd and optimiser jointly.
func TestTinyGCNTrainingConverges(t *testing.T) {
	// Two 10-cliques (directed both ways), classes 0 and 1.
	var edges []graph.Edge
	for c := 0; c < 2; c++ {
		base := int32(c * 10)
		for i := int32(0); i < 10; i++ {
			for j := int32(0); j < 10; j++ {
				if i != j {
					edges = append(edges, graph.Edge{Src: base + i, Dst: base + j})
				}
			}
		}
	}
	g := graph.MustFromEdges(20, edges)
	rng := tensor.NewRNG(13)
	features := tensor.RandNormal(20, 6, 0, 1, rng)
	for v := 0; v < 20; v++ {
		features.Set(v, 0, features.At(v, 0)+float32(v/10)*2-1)
	}
	labels := make([]int32, 20)
	mask := make([]bool, 20)
	for v := range labels {
		labels[v] = int32(v / 10)
		mask[v] = true
	}
	model := MustNewModel(GCN, []int{6, 8, 2}, 0, 14)
	opt := NewAdam(0.05)

	var lastLoss float64
	for epoch := 0; epoch < 60; epoch++ {
		// Layer-by-layer forward on a single tape stack.
		h := features
		tapes := make([]*autograd.Tape, 0, 3)
		var outVars []*autograd.Variable
		var inVars []*autograd.Variable
		for _, l := range model.Layers {
			ctx, hVar := buildCtxBench(g, l, h, true)
			out := l.Forward(ctx)
			tapes = append(tapes, ctx.Tape)
			outVars = append(outVars, out)
			inVars = append(inVars, hVar)
			h = out.Value
		}
		lossTape := autograd.NewTape()
		logits := lossTape.Leaf(h, true, "logits")
		loss, _ := lossTape.CrossEntropyMasked(logits, labels, mask)
		lastLoss = float64(loss.Value.At(0, 0))
		lossTape.Backward(loss, nil)
		grad := logits.Grad
		for i := len(model.Layers) - 1; i >= 0; i-- {
			tapes[i].Backward(outVars[i], grad)
			grad = inVars[i].Grad
		}
		for _, p := range model.Params() {
			p.CollectGrad()
		}
		opt.Step(model.Params())
		ZeroGrads(model.Params())
	}
	if lastLoss > 0.2 {
		t.Fatalf("training did not converge: loss %v", lastLoss)
	}
}

// buildCtxBench is buildCtx without the testing.T plumbing.
func buildCtxBench(g *graph.Graph, layer Layer, h *tensor.Tensor, training bool) (*ForwardCtx, *autograd.Variable) {
	tape := autograd.NewTape()
	n := g.NumVertices()
	hVar := tape.Leaf(h, true, "h")
	rows := hVar
	if pt, ok := layer.(PreTransformer); ok {
		rows = pt.PreTransform(tape, hVar, training, tensor.NewRNG(1))
	}
	srcIdx := make([]int32, 0, g.NumEdges())
	dstIdx := make([]int32, 0, g.NumEdges())
	offsets := make([]int32, n+1)
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(int32(v)) {
			srcIdx = append(srcIdx, u)
			dstIdx = append(dstIdx, int32(v))
		}
		offsets[v+1] = int32(len(srcIdx))
	}
	edgeNorm, selfNorm := graph.GCNNormCoefficients(g)
	ctx := &ForwardCtx{
		Tape: tape, EdgeSrc: tape.Gather(rows, srcIdx), Self: rows,
		Offsets: offsets, EdgeDst: dstIdx,
		EdgeNorm: edgeNorm, SelfNorm: selfNorm,
		Training: training, RNG: tensor.NewRNG(2),
	}
	return ctx, hVar
}

// BenchmarkGATLayer runs one single-head GAT layer forward and backward the
// way the engines do: a tape over a pooled arena released every iteration,
// source rows read through Src/SrcRow, every vertex a destination. E = 32 k
// edges over 4 096 vertices, 64 → 32 features.
func BenchmarkGATLayer(b *testing.B) {
	const (
		verts = 4096
		edges = 32 * 1024
		in    = 64
		out   = 32
	)
	rng := tensor.NewRNG(11)
	h := tensor.RandNormal(verts, in, 0, 1, rng)
	l := NewGATLayer(in, out, true, 0, rng)
	srcRow := make([]int32, edges)
	dst := make([]int32, edges)
	offsets := make([]int32, verts+1)
	for e := range srcRow {
		srcRow[e] = int32(rng.Intn(verts))
		dst[e] = int32(e * verts / edges) // destination-grouped, as in CSC order
		offsets[dst[e]+1] = int32(e + 1)
	}
	seed := tensor.New(verts, out)
	seed.Fill(1)
	pool := tensor.NewPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena := pool.Arena()
		tp := autograd.NewTapeArena(arena)
		z := l.PreTransform(tp, tp.Leaf(h, true, "h"), false, nil)
		ctx := &ForwardCtx{Tape: tp, Src: z, SrcRow: srcRow, Self: z, Offsets: offsets, EdgeDst: dst}
		tp.Backward(l.Forward(ctx), seed)
		for _, p := range l.Params() {
			p.CollectGrad()
		}
		arena.Release()
	}
}
