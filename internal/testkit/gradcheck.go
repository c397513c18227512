package testkit

import (
	"fmt"
	"math"

	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

// GradReport is the outcome of checking one tensor's gradient.
type GradReport struct {
	// Name identifies the checked tensor (parameter name, "features", or an
	// op label).
	Name string
	// RelErr is ‖analytic − numeric‖∞ / max(‖analytic‖∞, ‖numeric‖∞, floor)
	// over the checked elements.
	RelErr float64
	// Checked is the number of elements perturbed.
	Checked int
	// Kinks counts step-shrink retries that improved a suspicious element:
	// the original central difference straddled a non-differentiable point
	// (ReLU corner, max-aggregator argmax flip) and a smaller step resolved
	// the true one-sided slope.
	Kinks int
	// WorstIndex is the flat element index of the worst deviation, with
	// Analytic/Numeric its two gradient values.
	WorstIndex        int
	Analytic, Numeric float64
}

func (r GradReport) String() string {
	return fmt.Sprintf("%s: relerr=%.3g over %d elems, %d kinks skipped (worst @%d: analytic=%.6g numeric=%.6g)",
		r.Name, r.RelErr, r.Checked, r.Kinks, r.WorstIndex, r.Analytic, r.Numeric)
}

// CheckTensorGrad central-differences loss with respect to x and compares
// against the analytic gradient. x is perturbed in place and restored; loss
// must re-evaluate the forward pass from x's current contents on every call.
// maxElems > 0 checks an evenly strided subset (the fast tier-1 mode);
// maxElems <= 0 checks every element. eps scales the per-element step
// h = eps·max(1, |x_i|).
func CheckTensorGrad(name string, x, analytic *tensor.Tensor, loss func() float64,
	eps float64, maxElems int) GradReport {

	if !x.SameShape(analytic) {
		panic(fmt.Sprintf("testkit: analytic gradient %dx%d for tensor %dx%d",
			analytic.Rows(), analytic.Cols(), x.Rows(), x.Cols()))
	}
	n := x.Len()
	stride := 1
	if maxElems > 0 && n > maxElems {
		stride = (n + maxElems - 1) / maxElems
	}
	// The float32 forward pass computes the loss with O(ε32·|loss|) rounding
	// error; dividing by 2h turns that into derivative noise of roughly
	// ε32·|loss|/h. A gradient whose whole tensor sits below noise/tol cannot
	// be resolved to the harness tolerance at all, so the relative-error
	// normaliser is floored there. Rule-level backward bugs (dropped
	// accumulation, sign flips, wrong indices) still surface: they shift the
	// analytic side at full gradient scale, far above the floor.
	const eps32, tol = 1.2e-7, 1e-3
	f0 := loss()
	magFloor := eps32 * math.Max(1, math.Abs(f0)) / eps / tol
	data := x.Data()
	rep := GradReport{Name: name, WorstIndex: -1}
	var maxDiff, maxMag float64
	for i := 0; i < n; i += stride {
		old := data[i]
		h := float32(eps * math.Max(1, math.Abs(float64(old))))
		data[i] = old + h
		fp := loss()
		data[i] = old - h
		fm := loss()
		data[i] = old
		num := (fp - fm) / (2 * float64(h))
		ana := float64(analytic.Data()[i])
		diff := math.Abs(ana - num)
		// A failing element is either a real backward bug or a step interval
		// straddling a kink (ReLU corner, max-aggregator argmax flip), where
		// the central difference averages two branch slopes and matches
		// neither. Shrinking the step shrinks a straddle's error but leaves a
		// real bug's intact, so failures are retried at smaller steps before
		// they are believed.
		for k := 0; k < 2 && diff > tol*math.Max(math.Max(math.Abs(ana), math.Abs(num)), magFloor); k++ {
			h = float32(h / 2)
			data[i] = old + h
			fp = loss()
			data[i] = old - h
			fm = loss()
			data[i] = old
			if n2 := (fp - fm) / (2 * float64(h)); math.Abs(ana-n2) < diff {
				num, diff = n2, math.Abs(ana-n2)
				rep.Kinks++
			}
		}
		if mag := math.Max(math.Abs(ana), math.Abs(num)); mag > maxMag {
			maxMag = mag
		}
		if diff > maxDiff {
			maxDiff = diff
			rep.WorstIndex = i
			rep.Analytic, rep.Numeric = ana, num
		}
		rep.Checked++
	}
	rep.RelErr = relErr(maxDiff, maxMag, magFloor)
	return rep
}

// CheckModelGrads gradient-checks one model kind end to end on ds: it runs
// engine.ReferenceBackward once for the analytic parameter and feature
// gradients, then perturbs every parameter tensor and every vertex feature
// (subset-strided when maxElems > 0) and compares. The returned reports
// cover each parameter plus one "features" entry.
func CheckModelGrads(ds *dataset.Dataset, kind nn.ModelKind, seed uint64,
	eps float64, maxElems int) []GradReport {

	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}
	model := nn.MustNewModel(kind, dims, 0, seed)

	nn.ZeroGrads(model.Params())
	_, featGrad := engine.ReferenceBackward(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
	analytic := make([]*tensor.Tensor, 0, len(model.Params()))
	for _, p := range model.Params() {
		analytic = append(analytic, p.Grad.Clone())
	}

	// The numeric side: a forward-only pass from whatever the perturbed
	// tensors currently hold, reduced in float64.
	loss := func() float64 {
		logits := engine.ReferenceForward(ds.Graph, model, ds.Features)
		return maskedNLL(logits, ds.Labels, ds.TrainMask)
	}

	reports := make([]GradReport, 0, len(analytic)+1)
	for i, p := range model.Params() {
		name := fmt.Sprintf("%s/%s", kind, p.Name)
		reports = append(reports, CheckTensorGrad(name, p.Value, analytic[i], loss, eps, maxElems))
	}
	reports = append(reports,
		CheckTensorGrad(fmt.Sprintf("%s/features", kind), ds.Features, featGrad, loss, eps, maxElems))
	return reports
}
