package engine

import (
	"math"
	"testing"

	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

func TestReferenceForwardShapes(t *testing.T) {
	ds := testDataset(t, 90, 4, 60)
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GIN, nn.GAT, nn.SAGE} {
		model := nn.MustNewModel(kind, []int{ds.Spec.FeatureDim, 8, ds.Spec.NumClasses}, 0, 1)
		logits := ReferenceForward(ds.Graph, model, ds.Features)
		if logits.Rows() != ds.NumVertices() || logits.Cols() != ds.Spec.NumClasses {
			t.Fatalf("%s: logits %dx%d", kind, logits.Rows(), logits.Cols())
		}
		for _, v := range logits.Data() {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite logit", kind)
			}
		}
	}
}

func TestReferenceForwardDeterministic(t *testing.T) {
	ds := testDataset(t, 80, 4, 61)
	model := nn.MustNewModel(nn.GCN, []int{ds.Spec.FeatureDim, 8, ds.Spec.NumClasses}, 0, 2)
	a := ReferenceForward(ds.Graph, model, ds.Features)
	b := ReferenceForward(ds.Graph, model, ds.Features)
	if !a.Equal(b) {
		t.Fatal("inference not deterministic")
	}
}

func TestReferenceTrainStepReducesLoss(t *testing.T) {
	ds := testDataset(t, 120, 4, 62)
	model := nn.MustNewModel(nn.GCN, []int{ds.Spec.FeatureDim, 8, ds.Spec.NumClasses}, 0, 3)
	opt := nn.NewAdam(0.02)
	first := ReferenceTrainStep(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
	opt.Step(model.Params())
	nn.ZeroGrads(model.Params())
	var last float64
	for i := 0; i < 10; i++ {
		last = ReferenceTrainStep(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
		opt.Step(model.Params())
		nn.ZeroGrads(model.Params())
	}
	if last >= first {
		t.Fatalf("loss %v -> %v", first, last)
	}
}

func TestInferenceDoesNotMutateParams(t *testing.T) {
	ds := testDataset(t, 60, 3, 63)
	model := nn.MustNewModel(nn.GAT, []int{ds.Spec.FeatureDim, 8, ds.Spec.NumClasses}, 0, 4)
	before := make([]*tensor.Tensor, 0)
	for _, p := range model.Params() {
		before = append(before, p.Value.Clone())
	}
	ReferenceForward(ds.Graph, model, ds.Features)
	for i, p := range model.Params() {
		if !p.Value.Equal(before[i]) {
			t.Fatalf("param %d mutated by inference", i)
		}
		if tensor.Norm(p.Grad) != 0 {
			t.Fatalf("param %d accumulated gradient during inference", i)
		}
	}
}

func TestEngineTrainAfterEvaluateInterleaved(t *testing.T) {
	// Alternating Train and Evaluate must not break replica sync (Evaluate
	// reads worker 0's replica through the reference forward).
	ds := testDataset(t, 100, 4, 64)
	e, err := NewEngine(ds, Options{Workers: 3, Mode: Hybrid, Model: nn.GCN, Seed: 9, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var prev float64 = math.Inf(1)
	for i := 0; i < 4; i++ {
		st := e.RunEpoch()
		_ = e.Evaluate(ds.ValMask)
		if st.Loss <= 0 {
			t.Fatal("bad loss")
		}
		prev = st.Loss
	}
	_ = prev
	if !e.ReplicasInSync() {
		t.Fatal("interleaved evaluate broke replica sync")
	}
}

// TestEvaluateIsReferenceArgmax: for every kind of dataflow, Evaluate is the
// masked accuracy of argmax ReferenceForward over the trained parameters.
func TestEvaluateIsReferenceArgmax(t *testing.T) {
	ds := testDataset(t, 220, 5, 43)
	for _, mode := range []Mode{DepCache, DepComm, Hybrid, DepTP, DepRep} {
		e, err := NewEngine(ds, Options{Workers: 4, Mode: mode, Model: nn.GCN, Seed: 44, LR: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		e.Train(5)
		pred := tensor.ArgMaxRows(ReferenceForward(ds.Graph, e.Model(), ds.Features))
		for name, mask := range map[string][]bool{"train": ds.TrainMask, "val": ds.ValMask, "test": ds.TestMask} {
			correct, total := 0, 0
			for v, m := range mask {
				if m {
					total++
					if int32(pred[v]) == ds.Labels[v] {
						correct++
					}
				}
			}
			if total == 0 || correct == 0 {
				t.Fatalf("%s/%s: %d of %d correct; the check would prove nothing", mode, name, correct, total)
			}
			if got, want := e.Evaluate(mask), float64(correct)/float64(total); got != want {
				t.Fatalf("%s/%s: Evaluate %v, reference argmax %v", mode, name, got, want)
			}
		}
		e.Close()
	}
}

// TestEvaluateLeavesTrainingBitIdentical: evaluating between epochs touches
// nothing training reads — a run that calls Evaluate after every epoch has
// the loss bits and final parameters of one that never does.
func TestEvaluateLeavesTrainingBitIdentical(t *testing.T) {
	ds := testDataset(t, 220, 5, 43)
	for _, mode := range []Mode{Hybrid, DepTP} {
		for _, model := range []nn.ModelKind{nn.GCN, nn.GAT} {
			run := func(evaluate bool) ([]float64, []*nn.Param) {
				e, err := NewEngine(ds, Options{Workers: 3, Mode: mode, Model: model, Seed: 8,
					Ring: true, LockFree: true, Overlap: true, Dropout: 0.3, Pool: tensor.NewPool()})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				var losses []float64
				for i := 0; i < 3; i++ {
					losses = append(losses, e.RunEpoch().Loss)
					if evaluate {
						e.Evaluate(ds.ValMask)
					}
				}
				return losses, e.Params()
			}
			plain, plainParams := run(false)
			evaluated, evaluatedParams := run(true)
			for i := range plain {
				if math.Float64bits(plain[i]) != math.Float64bits(evaluated[i]) {
					t.Fatalf("%s/%s epoch %d: loss %.17g with Evaluate, %.17g without", mode, model, i+1, evaluated[i], plain[i])
				}
			}
			for i := range plainParams {
				if !plainParams[i].Value.Equal(evaluatedParams[i].Value) {
					t.Fatalf("%s/%s: parameter %s differs after evaluating", mode, model, plainParams[i].Name)
				}
			}
		}
	}
}

// TestReferenceBackwardMatchesFiniteDifference is the engine-local anchor for
// the testkit harness (which builds on ReferenceBackward and so cannot be its
// own oracle): both a parameter gradient and the feature gradient are checked
// against central differences directly here.
func TestReferenceBackwardMatchesFiniteDifference(t *testing.T) {
	ds := testDataset(t, 30, 3, 65)
	model := nn.MustNewModel(nn.GCN, []int{ds.Spec.FeatureDim, 6, ds.Spec.NumClasses}, 0, 5)
	nn.ZeroGrads(model.Params())
	lossAt := func() float64 {
		logits := ReferenceForward(ds.Graph, model, ds.Features)
		logp := tensor.LogSoftmaxRows(logits)
		var sum float64
		n := 0
		for v := 0; v < logp.Rows(); v++ {
			if !ds.TrainMask[v] {
				continue
			}
			n++
			sum -= float64(logp.At(v, int(ds.Labels[v])))
		}
		return sum / float64(n)
	}
	loss, featGrad := ReferenceBackward(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
	if math.Abs(loss-lossAt()) > 1e-5*math.Max(1, math.Abs(loss)) {
		t.Fatalf("backward loss %v, forward loss %v", loss, lossAt())
	}
	if featGrad.Rows() != ds.NumVertices() || featGrad.Cols() != ds.Spec.FeatureDim {
		t.Fatalf("feature grad %dx%d", featGrad.Rows(), featGrad.Cols())
	}
	check := func(name string, x, analytic *tensor.Tensor) {
		const h = 1e-3
		data := x.Data()
		for _, i := range []int{0, x.Len() / 2, x.Len() - 1} {
			old := data[i]
			data[i] = old + h
			fp := lossAt()
			data[i] = old - h
			fm := lossAt()
			data[i] = old
			num := (fp - fm) / (2 * h)
			ana := float64(analytic.Data()[i])
			if diff := math.Abs(ana - num); diff > 1e-3*math.Max(0.05, math.Abs(ana)) {
				t.Errorf("%s[%d]: analytic %v, numeric %v", name, i, ana, num)
			}
		}
	}
	check("w0", model.Params()[0].Value, model.Params()[0].Grad)
	check("features", ds.Features, featGrad)
}

// TestReferenceBackwardLeavesTrainStepIntact pins the refactor: the loss
// ReferenceTrainStep reports must equal ReferenceBackward's, and both must
// produce identical parameter gradients.
func TestReferenceBackwardLeavesTrainStepIntact(t *testing.T) {
	ds := testDataset(t, 40, 3, 66)
	a := nn.MustNewModel(nn.GIN, []int{ds.Spec.FeatureDim, 6, ds.Spec.NumClasses}, 0, 6)
	b := nn.MustNewModel(nn.GIN, []int{ds.Spec.FeatureDim, 6, ds.Spec.NumClasses}, 0, 6)
	nn.ZeroGrads(a.Params())
	nn.ZeroGrads(b.Params())
	la := ReferenceTrainStep(ds.Graph, a, ds.Features, ds.Labels, ds.TrainMask)
	lb, _ := ReferenceBackward(ds.Graph, b, ds.Features, ds.Labels, ds.TrainMask)
	if la != lb {
		t.Fatalf("losses differ: %v vs %v", la, lb)
	}
	for i := range a.Params() {
		if !a.Params()[i].Grad.Equal(b.Params()[i].Grad) {
			t.Fatalf("param %d gradients differ", i)
		}
	}
}
