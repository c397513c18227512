package engine

import (
	"neutronstar/internal/costmodel"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/obs"
)

// Cost-model validation: the planner decided the DepCache/DepComm split from
// probed environment factors (Tv, Te, Tc) and Eq. 1–3's work counts. The
// flight recorder measures what those stages actually cost, so we can close
// the loop three ways:
//
//  1. Per-layer residuals — modeled vs. measured compute and communication
//     seconds, (meas−pred)/pred.
//  2. Fitted factors — empirical Tv/Te recovered from measured layer times by
//     least squares (falling back to a uniform rescale of the probe when the
//     layers cannot separate the two), and empirical Tc as measured
//     comm-seconds per communicated element.
//  3. A counterfactual plan — Algorithm 4 re-run under the fitted factors,
//     diffed against the plan under the probed ones: how many cache/comm
//     decisions would flip had the probe been right.

// LayerResidual compares modeled and measured cost at one layer, summed
// across workers and averaged over the sampled epochs.
type LayerResidual struct {
	Layer int `json:"layer"`
	// VertexOps / EdgeOps are the destination rows and edges the cluster
	// computes at this layer (owned + redundantly recomputed cached blocks).
	VertexOps int64 `json:"vertex_ops"`
	EdgeOps   int64 `json:"edge_ops"`
	// RecvRows is the number of dependency rows fetched over the network.
	RecvRows int64 `json:"recv_rows"`
	// RecvElems is the slice-exchange collective element volume of
	// tensor-parallel layers (zero elsewhere).
	RecvElems int64 `json:"recv_elems"`
	// Compute: prediction is (VertexOps·Tv + EdgeOps·Te)·d^(l) (the Eq. 1
	// work terms); measurement is the forward+backward stage seconds.
	PredComputeSeconds float64 `json:"pred_compute_seconds"`
	MeasComputeSeconds float64 `json:"meas_compute_seconds"`
	ComputeResidual    float64 `json:"compute_residual"`
	// Communication: prediction is (RecvRows·d^(l-1) + RecvElems)·Tc (Eq. 2–3);
	// measurement is dep-fetch send+recv plus the layer's mirror-gradient
	// scatter (Tc is calibrated for the bidirectional exchange).
	PredCommSeconds float64 `json:"pred_comm_seconds"`
	MeasCommSeconds float64 `json:"meas_comm_seconds"`
	CommResidual    float64 `json:"comm_residual"`
	// MeasCommBytes is what the layer's dep_fetch_send, dep_fetch_recv and
	// mirror_scatter cells carried per epoch, every message counted at both
	// ends. DenseCommBytes is what the same cells carry when every element
	// Eq. 2 prices travels dense: (RecvRows·d^(l-1) + RecvElems) 4-byte
	// elements forward and as many gradients back, at both ends, headers and
	// vertex ids aside. Mirror rows travel ReLU-packed, so the first is
	// usually well below the second, while Eq. 2, and so the planner, prices
	// the dense volume.
	MeasCommBytes  int64 `json:"meas_comm_bytes"`
	DenseCommBytes int64 `json:"dense_comm_bytes"`
}

// CostReport is the full validator output.
type CostReport struct {
	// Epochs is the number of flight records averaged over.
	Epochs int `json:"epochs"`
	// Probed are the factors the planner used; Fitted are the empirical ones.
	Probed costmodel.Costs `json:"probed"`
	Fitted costmodel.Costs `json:"fitted"`
	// FitMethod is "least_squares" when Tv/Te separated cleanly, "scaled"
	// when the probe was uniformly rescaled, "probe" when nothing was
	// measurable (e.g. zero recorded compute time).
	FitMethod string          `json:"fit_method"`
	Layers    []LayerResidual `json:"layers"`
	// Flips diffs greedy plans under probed vs. fitted costs.
	Flips hybrid.FlipReport `json:"flips"`
}

// layerWorks tallies the cluster's work per layer from the planner's ledgers
// of the running Decisions — the counts Eq. 1–3 priced, which the plans run.
func (e *Engine) layerWorks() []hybrid.Work {
	works := make([]hybrid.Work, len(e.dims)-1)
	for w, d := range e.decs {
		for l, lw := range e.planner.Ledger(w, d).Layers {
			works[l].Rows += lw.Rows
			works[l].Edges += lw.Edges
			works[l].FetchedRows += lw.FetchedRows
			works[l].TPElems += lw.TPElems
		}
	}
	return works
}

// CostReport validates the cost model against the engine's flight records.
// Returns nil when no recorder is attached or no epoch has completed. The
// report re-plans under the fitted costs, so it is built once per recorded
// epoch and shared until the next one: callers must not modify it.
func (e *Engine) CostReport() *CostReport {
	last := e.opts.Recorder.Tail(1)
	if len(last) == 0 {
		return nil
	}
	e.cost.mu.Lock()
	defer e.cost.mu.Unlock()
	if e.cost.rep == nil || e.cost.epoch != last[0].Epoch {
		e.cost.rep, e.cost.epoch = e.CostReportFrom(e.opts.Recorder.Snapshot()), last[0].Epoch
	}
	return e.cost.rep
}

// CostReportFrom validates against an explicit set of epoch records (the
// benchmark passes only post-warmup epochs).
func (e *Engine) CostReportFrom(recs []obs.EpochRecord) *CostReport {
	if len(recs) == 0 {
		return nil
	}
	works := e.layerWorks()
	L := len(works)
	rep := &CostReport{Epochs: len(recs), Probed: e.planner.Costs, Fitted: e.planner.Costs, FitMethod: "probe"}

	// Average measured stage seconds and comm bytes per layer across the
	// sampled epochs.
	measCompute := make([]float64, L+1)
	measComm := make([]float64, L+1)
	measBytes := make([]int64, L+1)
	for i := range recs {
		r := &recs[i]
		for l := 1; l <= L; l++ {
			measCompute[l] += r.LayerStageSeconds("forward", l) + r.LayerStageSeconds("backward", l)
			measComm[l] += r.LayerStageSeconds("dep_fetch_send", l) +
				r.LayerStageSeconds("dep_fetch_recv", l) +
				r.LayerStageSeconds("mirror_scatter", l)
		}
		for _, c := range r.Cells {
			switch c.Stage {
			case "dep_fetch_send", "dep_fetch_recv", "mirror_scatter":
				if c.Layer >= 1 && c.Layer <= L {
					measBytes[c.Layer] += c.Bytes
				}
			}
		}
	}
	n := float64(len(recs))
	for l := 1; l <= L; l++ {
		measCompute[l] /= n
		measComm[l] /= n
		measBytes[l] /= int64(len(recs))
	}

	// Fit empirical compute factors over the layers.
	var vElems, eElems, seconds []float64
	var predSum, measSum float64
	for l := 1; l <= L; l++ {
		w := works[l-1]
		d := float64(e.dims[l])
		vElems = append(vElems, float64(w.Rows)*d)
		eElems = append(eElems, float64(w.Edges)*d)
		seconds = append(seconds, measCompute[l])
		predSum += hybrid.ComputeCost(e.planner.Costs, w.Rows, w.Edges, e.dims[l])
		measSum += measCompute[l]
	}
	if tv, te, ok := costmodel.FitComputeFactors(vElems, eElems, seconds); ok {
		rep.Fitted.Tv, rep.Fitted.Te = tv, te
		rep.FitMethod = "least_squares"
	} else if predSum > 0 && measSum > 0 {
		scale := measSum / predSum
		rep.Fitted.Tv = e.planner.Costs.Tv * scale
		rep.Fitted.Te = e.planner.Costs.Te * scale
		rep.FitMethod = "scaled"
	}

	// Fit empirical Tc as comm seconds per communicated element — dependency
	// rows at their layer width plus TP collective volume.
	var commElems, commSeconds float64
	for l := 1; l <= L; l++ {
		commElems += float64(float64(works[l-1].FetchedRows)*float64(e.dims[l-1])) +
			float64(works[l-1].TPElems)
		commSeconds += measComm[l]
	}
	if commElems > 0 && commSeconds > 0 {
		rep.Fitted.Tc = commSeconds / commElems
	}

	for l := 1; l <= L; l++ {
		w := works[l-1]
		elems := w.FetchedRows*int64(e.dims[l-1]) + w.TPElems
		lr := LayerResidual{
			Layer: l, VertexOps: w.Rows, EdgeOps: w.Edges,
			RecvRows: w.FetchedRows, RecvElems: w.TPElems,
			PredComputeSeconds: hybrid.ComputeCost(e.planner.Costs, w.Rows, w.Edges, e.dims[l]),
			MeasComputeSeconds: measCompute[l],
			PredCommSeconds:    e.planner.Costs.CommCost(elems),
			MeasCommSeconds:    measComm[l],
			MeasCommBytes:      measBytes[l],
			DenseCommBytes:     16 * elems,
		}
		if lr.PredComputeSeconds > 0 {
			lr.ComputeResidual = (lr.MeasComputeSeconds - lr.PredComputeSeconds) / lr.PredComputeSeconds
		}
		if lr.PredCommSeconds > 0 {
			lr.CommResidual = (lr.MeasCommSeconds - lr.PredCommSeconds) / lr.PredCommSeconds
		}
		rep.Layers = append(rep.Layers, lr)
	}

	rep.Flips = e.counterfactualFlips(rep.Fitted)
	return rep
}

// counterfactualFlips diffs the policy's re-plan family decided under the
// probed costs against the same family under fitted ones, so the comparison
// is policy-to-policy regardless of the engine's actual mode. The probed
// plan is fixed for the engine's life and decided once (probedPlan); only
// the fitted one is planned per report.
func (e *Engine) counterfactualFlips(fitted costmodel.Costs) hybrid.FlipReport {
	planA, errA := e.probedPlan()
	planB, errB := e.replan(fitted)
	if errA != nil || errB != nil {
		return hybrid.FlipReport{}
	}
	return hybrid.DiffDecisions(planA, planB)
}

// replan decides the policy's re-plan family under costs.
func (e *Engine) replan(costs costmodel.Costs) ([]*hybrid.Decision, error) {
	p := *e.planner
	p.Costs = costs
	return p.DecideAll(e.policy.replan)
}
