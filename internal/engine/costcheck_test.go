package engine

import (
	"math"
	"reflect"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/graph"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// ringDataset builds a directed ring i → i+1 (every vertex has in-degree 1),
// the smallest graph whose chunk partition has cross-worker dependencies
// with exactly predictable subtree costs.
func ringDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	edges := make([]graph.Edge, n)
	for i := 0; i < n; i++ {
		edges[i] = graph.Edge{Src: int32(i), Dst: int32((i + 1) % n)}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, n)
	train := make([]bool, n)
	for i := range labels {
		labels[i] = int32(i % 2)
		train[i] = true
	}
	return &dataset.Dataset{
		Spec: dataset.Spec{Name: "ring", Vertices: n, FeatureDim: 4,
			NumClasses: 2, HiddenDim: 4, Seed: 1},
		Graph:     g,
		Features:  tensor.RandNormal(n, 4, 0, 1, tensor.NewRNG(1)),
		Labels:    labels,
		TrainMask: train, ValMask: make([]bool, n), TestMask: make([]bool, n),
	}
}

// pinnedCosts are forced environment factors: generous Tc makes the greedy
// cache every layer-2 dependency (t_r = Tv·4 = 8e-6 < Tc·4 = 4e-5; the
// model is GCN, so layer 1 is bound and a level-1 replica walks no edge).
var pinnedCosts = costmodel.Costs{Tv: 2e-6, Te: 1e-6, Tc: 1e-5}

// ringEngine builds a 2-worker DepComm engine over the ring with pinned
// costs — DepComm so every layer has communication work to validate against.
func ringEngine(t *testing.T) *Engine {
	t.Helper()
	eng, err := newTuned(ringDataset(t, 40), Options{
		Workers: 2, Mode: DepComm, Seed: 1,
		Recorder: obs.NewFlightRecorder(),
	}, fixedCosts(pinnedCosts, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// syntheticRecord fabricates an epoch whose measured stage seconds are given
// per layer: compute lands in "forward", communication in "dep_fetch_recv".
func syntheticRecord(layers int, compute, comm []float64) obs.EpochRecord {
	r := obs.EpochRecord{Epoch: 1, WallSeconds: 1, Workers: 2, Layers: layers}
	for l := 1; l <= layers; l++ {
		r.Cells = append(r.Cells,
			obs.StageCell{Worker: 0, Stage: "forward", Layer: l, Seconds: compute[l-1]},
			obs.StageCell{Worker: 0, Stage: "dep_fetch_recv", Layer: l, Seconds: comm[l-1]},
		)
	}
	return r
}

// probeWork reads the validator's own work counts (and hence exact
// predictions) by running it once on a throwaway record.
func probeWork(t *testing.T, eng *Engine) *CostReport {
	t.Helper()
	cr := eng.CostReportFrom([]obs.EpochRecord{syntheticRecord(2, []float64{1, 1}, []float64{1, 1})})
	if cr == nil || len(cr.Layers) != 2 {
		t.Fatalf("probe report = %+v", cr)
	}
	return cr
}

// TestCostReportZeroResidualsWhenModelExact: feed the validator measurements
// that equal the model's own predictions under the pinned factors — every
// residual must vanish, the fitted factors must reproduce the pinned ones,
// and the counterfactual plan must not flip a single decision.
func TestCostReportZeroResidualsWhenModelExact(t *testing.T) {
	eng := ringEngine(t)
	probe := probeWork(t, eng)
	compute := []float64{probe.Layers[0].PredComputeSeconds, probe.Layers[1].PredComputeSeconds}
	comm := []float64{probe.Layers[0].PredCommSeconds, probe.Layers[1].PredCommSeconds}
	cr := eng.CostReportFrom([]obs.EpochRecord{syntheticRecord(2, compute, comm)})
	if cr == nil {
		t.Fatal("nil report")
	}
	for _, lr := range cr.Layers {
		if math.Abs(lr.ComputeResidual) > 1e-9 || math.Abs(lr.CommResidual) > 1e-9 {
			t.Fatalf("layer %d residuals not ~0: compute %g comm %g",
				lr.Layer, lr.ComputeResidual, lr.CommResidual)
		}
		// Layer 1's rows are held, not fetched: nothing to predict there.
		if (lr.RecvRows == 0) != (lr.Layer == 1) {
			t.Fatalf("layer %d: DepComm plan fetches %d rows per epoch", lr.Layer, lr.RecvRows)
		}
	}
	if rel := math.Abs(cr.Fitted.Tc-pinnedCosts.Tc) / pinnedCosts.Tc; rel > 1e-9 {
		t.Fatalf("fitted Tc %g, want %g", cr.Fitted.Tc, pinnedCosts.Tc)
	}
	// Compute factors may come back exact (least squares) or as a unit
	// rescale of the probe — either way they must reproduce the pinned model.
	predUnderFitted := float64(cr.Layers[0].VertexOps)*cr.Fitted.Tv + float64(cr.Layers[0].EdgeOps)*cr.Fitted.Te
	predUnderPinned := float64(cr.Layers[0].VertexOps)*pinnedCosts.Tv + float64(cr.Layers[0].EdgeOps)*pinnedCosts.Te
	if rel := math.Abs(predUnderFitted-predUnderPinned) / predUnderPinned; rel > 1e-9 {
		t.Fatalf("fitted compute factors predict %g, pinned predict %g", predUnderFitted, predUnderPinned)
	}
	if cr.Flips.Flips() != 0 {
		t.Fatalf("exact model flipped %d decisions: %+v", cr.Flips.Flips(), cr.Flips)
	}
}

// TestCostReportTcOffByTenFlipsDecisions: the probe said Tc = 1e-5, under
// which caching a layer-2 ring dependency (t_r = 8e-6) beats fetching it
// (t_c = 4e-5). Measurements implying the true Tc is 10× lower (t_c = 4e-6)
// must flip those decisions to DepComm in the counterfactual plan.
func TestCostReportTcOffByTenFlipsDecisions(t *testing.T) {
	const trueTc = 1e-6
	eng := ringEngine(t)
	probe := probeWork(t, eng)
	compute := []float64{probe.Layers[0].PredComputeSeconds, probe.Layers[1].PredComputeSeconds}
	comm := make([]float64, 2)
	for i, lr := range probe.Layers {
		comm[i] = float64(lr.RecvRows) * trueTc * float64(eng.dims[lr.Layer-1])
	}
	cr := eng.CostReportFrom([]obs.EpochRecord{syntheticRecord(2, compute, comm)})
	if cr == nil {
		t.Fatal("nil report")
	}
	if rel := math.Abs(cr.Fitted.Tc-trueTc) / trueTc; rel > 1e-9 {
		t.Fatalf("fitted Tc %g, want %g", cr.Fitted.Tc, trueTc)
	}
	if cr.Flips.CacheToComm == 0 {
		t.Fatalf("10x-off Tc flipped nothing: %+v", cr.Flips)
	}
	if cr.Flips.CommToCache != 0 {
		t.Fatalf("cheaper comm must not create new cache decisions: %+v", cr.Flips)
	}
}

// TestLayerWorkCounts pins the validator's work counts on the ring: every
// vertex is computed once per layer with exactly one in-edge, and each
// worker fetches its single boundary dependency — above layer 1, where it
// holds that dependency's feature row instead and, the model being GCN,
// walked the edges once at construction, so no epoch does.
func TestLayerWorkCounts(t *testing.T) {
	eng := ringEngine(t)
	works := eng.layerWorks()
	if len(works) != 2 {
		t.Fatalf("layers = %d", len(works))
	}
	for l, w := range works {
		if w.Rows != 40 {
			t.Fatalf("layer %d vertexOps = %d, want 40", l+1, w.Rows)
		}
		if want := int64(40 * min(l, 1)); w.Edges != want {
			t.Fatalf("layer %d edgeOps = %d, want %d (layer 1's combine is bound)", l+1, w.Edges, want)
		}
		if want := int64(2 * min(l, 1)); w.FetchedRows != want {
			t.Fatalf("layer %d recvRows = %d, want %d (one boundary dep per worker, held at layer 1)", l+1, w.FetchedRows, want)
		}
	}
}

// TestCostReportPlansProbedOnce: the counterfactual's probed-cost plan is
// fixed for the engine's life, so every report diffs against the one plan
// decided first and reports the same flips.
func TestCostReportPlansProbedOnce(t *testing.T) {
	eng := ringEngine(t)
	recs := []obs.EpochRecord{syntheticRecord(2, []float64{1, 1}, []float64{1e-3, 1e-3})}
	first := eng.CostReportFrom(recs)
	planA, err := eng.probedPlan()
	if err != nil || len(planA) == 0 {
		t.Fatalf("probed plan: %d decisions, err %v", len(planA), err)
	}
	second := eng.CostReportFrom(recs)
	if planB, _ := eng.probedPlan(); planB[0] != planA[0] {
		t.Fatal("the second report decided the probed plan again")
	}
	if !reflect.DeepEqual(first.Flips, second.Flips) {
		t.Fatalf("flips moved between reports: %+v, then %+v", first.Flips, second.Flips)
	}
}

// TestCostReportBuiltOncePerEpoch: the report re-plans, so scrapes between
// two epochs share one report and the next epoch brings a new one.
func TestCostReportBuiltOncePerEpoch(t *testing.T) {
	eng := ringEngine(t)
	eng.RunEpoch()
	first := eng.CostReport()
	if first == nil || first != eng.CostReport() {
		t.Fatal("two reports with no epoch between them were built twice")
	}
	eng.RunEpoch()
	if next := eng.CostReport(); next == first || next.Epochs != 2 {
		t.Fatalf("the report after a new epoch is the old one (%d epochs)", next.Epochs)
	}
}

// TestCostReportCommBytes: each layer reports the bytes its dependency and
// mirror-gradient cells carried, averaged over the records, beside the dense
// volume Eq. 2 prices — 4-byte elements both ways, counted at both ends.
func TestCostReportCommBytes(t *testing.T) {
	eng := ringEngine(t)
	var recs []obs.EpochRecord
	for k := int64(1); k <= 2; k++ {
		r := syntheticRecord(2, []float64{1, 1}, []float64{1, 1})
		r.Cells = append(r.Cells,
			obs.StageCell{Worker: 0, Stage: "dep_fetch_send", Layer: 2, Bytes: 100 * k},
			obs.StageCell{Worker: 1, Stage: "dep_fetch_recv", Layer: 2, Bytes: 100 * k},
			obs.StageCell{Worker: 1, Stage: "mirror_scatter", Layer: 2, Bytes: 40 * k},
			obs.StageCell{Worker: 0, Stage: "grad_sync", Layer: 0, Bytes: 999},
		)
		recs = append(recs, r)
	}
	cr := eng.CostReportFrom(recs)
	for _, lr := range cr.Layers {
		want := int64(0)
		if lr.Layer == 2 {
			want = 360
		}
		if lr.MeasCommBytes != want {
			t.Fatalf("layer %d carried %d bytes, want %d", lr.Layer, lr.MeasCommBytes, want)
		}
		if dense := 16 * lr.RecvRows * int64(eng.dims[lr.Layer-1]); lr.DenseCommBytes != dense {
			t.Fatalf("layer %d dense bytes %d, want %d", lr.Layer, lr.DenseCommBytes, dense)
		}
	}
}
