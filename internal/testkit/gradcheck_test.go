package testkit

import (
	"math"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

// TestModelGradientsFast perturbs a strided subset of every parameter tensor
// and the vertex features for two architectures — enough to catch a broken
// dual in tier-1 without paying for exhaustive perturbation.
func TestModelGradientsFast(t *testing.T) {
	ds := SmallDataset(24, 3, 7)
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT} {
		for _, r := range CheckModelGrads(ds, kind, 11, 2e-3, 8) {
			if r.RelErr >= gradTol {
				t.Errorf("FAIL %s", r)
			} else {
				t.Logf("ok   %s", r)
			}
		}
	}
}

// TestReferenceMatchesEdgeSrcEntry runs every model kind through the second
// ForwardCtx entry — one pre-gathered row per edge in EdgeSrc, no Src/SrcRow —
// and requires the logits CheckModelGrads differentiates (ReferenceForward,
// which passes Src/SrcRow) bit for bit: the two entries are one kernel.
func TestReferenceMatchesEdgeSrcEntry(t *testing.T) {
	ds := SmallDataset(24, 3, 7)
	g := ds.Graph
	b := graph.FullBlock(g)
	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
	for _, kind := range nn.ModelKinds() {
		model := nn.MustNewModel(kind, dims, 0, 11)
		h := ds.Features
		for _, layer := range model.Layers {
			tape := autograd.NewTape()
			rows := tape.Constant(h, "h")
			if pt, ok := layer.(nn.PreTransformer); ok {
				rows = pt.PreTransform(tape, rows, false, nil)
			}
			h = layer.Forward(&nn.ForwardCtx{
				Tape: tape, EdgeSrc: tape.Gather(rows, b.SrcRow), Self: rows,
				Offsets: b.Offsets, EdgeDst: b.EdgeDst, EdgeNorm: b.EdgeNorm, SelfNorm: b.SelfNorm,
			}).Value
			for _, p := range layer.Params() {
				p.CollectGrad()
			}
		}
		want := engine.ReferenceForward(g, model, ds.Features)
		for i, w := range want.Data() {
			if math.Float32bits(h.Data()[i]) != math.Float32bits(w) {
				t.Fatalf("%s: logit %d = %v through EdgeSrc, %v through Src/SrcRow", kind, i, h.Data()[i], w)
			}
		}
	}
}

// tpTestExchange is a deliberately irregular DepTP geometry: 4 workers with
// an empty owner block (worker 1) and a zero-width column slice (also worker
// 1), plus uneven blocks and slices everywhere else.
func tpTestExchange() engine.TPSliceExchange {
	return engine.TPSliceExchange{
		BlockStart: []int{0, 3, 3, 8, 10},
		ColStart:   []int{0, 2, 2, 5, 7},
	}
}

func randTensor(rng *tensor.RNG, rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return t
}

// TestTPSliceExchangeAdjoint finite-difference-checks the DepTP collectives:
// a linear loss through ReGather must have exactly ReScatter as its gradient,
// for every worker's slice — which is the identity that makes the TP backward
// pass compute single-machine gradients.
func TestTPSliceExchangeAdjoint(t *testing.T) {
	rng := tensor.NewRNG(41)
	x := tpTestExchange()
	m := x.NumWorkers()
	totalRows := x.BlockStart[m]
	d := x.ColStart[m]

	slices := make([]*tensor.Tensor, m)
	for j := 0; j < m; j++ {
		slices[j] = randTensor(rng, totalRows, x.ColStart[j+1]-x.ColStart[j])
	}
	// Fixed random cotangents: loss = Σ_w ⟨B_w, ReGather(slices, w)⟩.
	cot := make([]*tensor.Tensor, m)
	for w := 0; w < m; w++ {
		cot[w] = randTensor(rng, x.BlockStart[w+1]-x.BlockStart[w], d)
	}
	loss := func() float64 {
		var s float64
		for w := 0; w < m; w++ {
			g := x.ReGather(slices, w)
			gd, cd := g.Data(), cot[w].Data()
			for i := range gd {
				s += float64(gd[i]) * float64(cd[i])
			}
		}
		return s
	}
	// Analytic gradient of every slice: the scatters of all cotangents.
	grads := make([]*tensor.Tensor, m)
	for j := 0; j < m; j++ {
		grads[j] = tensor.New(totalRows, x.ColStart[j+1]-x.ColStart[j])
	}
	for w := 0; w < m; w++ {
		x.ReScatter(cot[w], w, grads)
	}
	for j := 0; j < m; j++ {
		if slices[j].Len() == 0 {
			continue // zero-width slice: nothing to perturb
		}
		r := CheckTensorGrad("tp_slice", slices[j], grads[j], loss, 1e-3, 0)
		if r.RelErr >= gradTol {
			t.Errorf("FAIL worker %d %s", j, r)
		} else {
			t.Logf("ok   worker %d %s", j, r)
		}
	}

	// Dot-product adjoint identity on independent data:
	// Σ_w ⟨ReGather(A, w), B_w⟩ == Σ_j ⟨A_j, ReScatter(B)_j⟩.
	var lhs, rhs float64
	for w := 0; w < m; w++ {
		g := x.ReGather(slices, w)
		gd, cd := g.Data(), cot[w].Data()
		for i := range gd {
			lhs += float64(gd[i]) * float64(cd[i])
		}
	}
	for j := 0; j < m; j++ {
		ad, gd := slices[j].Data(), grads[j].Data()
		for i := range ad {
			rhs += float64(ad[i]) * float64(gd[i])
		}
	}
	if diff := math.Abs(lhs - rhs); diff > 1e-4*math.Max(1, math.Abs(lhs)) {
		t.Errorf("adjoint identity violated: ⟨Gx,y⟩=%.9g vs ⟨x,Sy⟩=%.9g", lhs, rhs)
	}
}

// TestModelGradientsFull checks every element of every parameter and every
// feature for all four model kinds.
func TestModelGradientsFull(t *testing.T) {
	SkipUnlessFull(t)
	ds := SmallDataset(24, 3, 7)
	for _, kind := range nn.ModelKinds() {
		for _, r := range CheckModelGrads(ds, kind, 11, 2e-3, 0) {
			if r.RelErr >= gradTol {
				t.Errorf("FAIL %s", r)
			} else {
				t.Logf("ok   %s", r)
			}
		}
	}
}
