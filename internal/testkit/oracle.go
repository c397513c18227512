package testkit

import (
	"fmt"
	"math"
	"path/filepath"

	"neutronstar/internal/ckpt"
	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

// OracleOptions configures one cross-policy equivalence run.
type OracleOptions struct {
	// Workers is the distributed cluster size N (default 4).
	Workers int
	// Epochs is the training length compared (default 3).
	Epochs int
	// Model selects the architecture (default GCN).
	Model nn.ModelKind
	// Seed fixes model init for every policy.
	Seed uint64
	// LossTol bounds per-epoch |loss_policy − loss_ref| / max(1, |loss_ref|)
	// (default 1e-5).
	LossTol float64
	// ParamTol bounds the final parameters' element-wise deviation
	// normalised by max(1, ‖ref param‖∞) (default 1e-5).
	ParamTol float64
	// Fault, when non-nil, adds an N-worker hybrid run under fault injection
	// to the policy set. Faults touch timing, never content, so the run must
	// agree like any other policy.
	Fault *comm.FaultSpec
	// CkptDir, when non-empty, adds a kill-and-resume hybrid run: train
	// Epochs/2 epochs with checkpointing into CkptDir, discard the engine,
	// restore the latest snapshot into a fresh one, finish the remaining
	// epochs.
	CkptDir string
}

func (o OracleOptions) withDefaults() OracleOptions {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Epochs <= 0 {
		o.Epochs = 3
	}
	if o.Model == "" {
		o.Model = nn.GCN
	}
	if o.LossTol == 0 {
		o.LossTol = 1e-5
	}
	if o.ParamTol == 0 {
		o.ParamTol = 1e-5
	}
	return o
}

// PolicyRun records one policy's trajectory for reporting.
type PolicyRun struct {
	Label  string
	Losses []float64
	// Params holds deep copies of the final parameter tensors, in model
	// parameter order.
	Params []*tensor.Tensor
}

// oracleCosts pins the cost model so hybrid plans are identical across
// processes (no probing). Tv < Tc: a 2-layer GCN, whose layer 1 is bound,
// caches every dependency; a GAT or SAGE greedy, or a deeper GCN's top
// layer, caches some and communicates the rest.
var oracleCosts = costmodel.Costs{Tv: 2e-8, Te: 4e-9, Tc: 6e-8}

// RunEquivalence trains ds under every dependency-management policy — the
// single-machine reference, a 1-worker engine, N-worker pure DepCache,
// N-worker pure DepComm, the cost-model hybrid plan, N-worker tensor-parallel
// DepTP, N-worker replicated DepRep, and the 3-way hybrid3 and 4-way hybrid4
// plans, plus the optional fault-injected and
// kill-and-resume variants — and checks that per-epoch
// losses and final parameters agree with the reference within the
// tolerances. It returns every policy's trajectory and the first divergence
// found (nil if all agree). This is the executable form of the paper's
// exactness claim: Eq. 1–3 / Algorithm 4 choose *where* h^(l) is computed,
// never *what* it is.
func RunEquivalence(ds *dataset.Dataset, opt OracleOptions) ([]PolicyRun, error) {
	opt = opt.withDefaults()
	dims := []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}

	// Single-machine reference: the ground truth everything else must match.
	ref := PolicyRun{Label: "reference"}
	model := nn.MustNewModel(opt.Model, dims, 0, opt.Seed+7)
	adam := nn.NewAdam(0.01)
	for e := 0; e < opt.Epochs; e++ {
		loss := engine.ReferenceTrainStep(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
		adam.Step(model.Params())
		nn.ZeroGrads(model.Params())
		ref.Losses = append(ref.Losses, loss)
	}
	for _, p := range model.Params() {
		ref.Params = append(ref.Params, p.Value.Clone())
	}
	runs := []PolicyRun{ref}

	base := engine.Options{
		Model: opt.Model, Seed: opt.Seed,
	}
	type policy struct {
		label string
		opts  engine.Options
	}
	policies := []policy{
		{"1-worker", with(base, func(o *engine.Options) { o.Workers = 1; o.Mode = engine.Hybrid })},
		{fmt.Sprintf("depcache/%dw", opt.Workers), with(base, func(o *engine.Options) {
			o.Workers = opt.Workers
			o.Mode = engine.DepCache
		})},
		{fmt.Sprintf("depcomm/%dw", opt.Workers), with(base, func(o *engine.Options) {
			o.Workers = opt.Workers
			o.Mode = engine.DepComm
		})},
		{fmt.Sprintf("hybrid/%dw", opt.Workers), with(base, func(o *engine.Options) {
			o.Workers = opt.Workers
			o.Mode = engine.Hybrid
		})},
		{fmt.Sprintf("deptp/%dw", opt.Workers), with(base, func(o *engine.Options) {
			o.Workers = opt.Workers
			o.Mode = engine.DepTP
		})},
		{fmt.Sprintf("hybrid3/%dw", opt.Workers), with(base, func(o *engine.Options) {
			o.Workers = opt.Workers
			o.Mode = engine.Hybrid3
		})},
		{fmt.Sprintf("deprep/%dw", opt.Workers), with(base, func(o *engine.Options) {
			o.Workers = opt.Workers
			o.Mode = engine.DepRep
		})},
		{fmt.Sprintf("hybrid4/%dw", opt.Workers), with(base, func(o *engine.Options) {
			o.Workers = opt.Workers
			o.Mode = engine.Hybrid4
		})},
	}
	if opt.Fault != nil {
		for _, m := range []engine.Mode{engine.Hybrid, engine.DepTP, engine.DepRep, engine.Hybrid4} {
			mode := m
			policies = append(policies, policy{
				fmt.Sprintf("%s/%dw+faults", mode, opt.Workers),
				with(base, func(o *engine.Options) {
					o.Workers = opt.Workers
					o.Mode = mode
					o.Profile.Fault = opt.Fault
				}),
			})
		}
	}

	for _, p := range policies {
		run, err := trainEngine(ds, p.label, p.opts, opt.Epochs)
		if err != nil {
			return runs, err
		}
		runs = append(runs, *run)
	}
	if opt.CkptDir != "" {
		// Kill-and-resume per mode, each with its own snapshot subdirectory:
		// the store is modeless and LoadLatest would otherwise hand one mode
		// the other's snapshot.
		for _, m := range []engine.Mode{engine.Hybrid, engine.DepTP, engine.DepRep, engine.Hybrid4} {
			run, err := resumeRun(ds, base, opt, m)
			if err != nil {
				return runs, err
			}
			runs = append(runs, *run)
		}
	}

	for _, run := range runs[1:] {
		if err := compareRuns(ref, run, opt.LossTol, opt.ParamTol); err != nil {
			return runs, err
		}
	}
	return runs, nil
}

// RunEquivalenceProperty adapts the oracle into a shrinkable Property for the
// generator: any dataset on which some policy diverges from the reference is
// a violation. The worker count is clamped to the candidate's vertex count so
// shrunk graphs stay partitionable.
func RunEquivalenceProperty(opt OracleOptions) Property {
	return func(ds *dataset.Dataset) error {
		o := opt.withDefaults()
		if n := ds.Graph.NumVertices(); o.Workers > n {
			o.Workers = n
		}
		_, err := RunEquivalence(ds, o)
		return err
	}
}

func with(o engine.Options, f func(*engine.Options)) engine.Options {
	f(&o)
	return o
}

// newEngine is engine.NewEngine planned under oracleCosts instead of the
// probed factors.
func newEngine(ds *dataset.Dataset, opts engine.Options) (*engine.Engine, error) {
	plan, err := engine.PlanFor(ds, opts, func(p *hybrid.Planner, _ *hybrid.Mode) { p.Costs = oracleCosts })
	if err != nil {
		return nil, err
	}
	return engine.New(ds, plan, opts)
}

// trainEngine runs one engine policy to completion and captures its
// trajectory. Replica divergence is an immediate error: parameters that
// drift apart across workers invalidate any loss agreement downstream.
func trainEngine(ds *dataset.Dataset, label string, opts engine.Options, epochs int) (*PolicyRun, error) {
	e, err := newEngine(ds, opts)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", label, err)
	}
	defer e.Close()
	run := &PolicyRun{Label: label}
	for i := 0; i < epochs; i++ {
		st := e.RunEpoch()
		if st.CkptErr != nil {
			return nil, fmt.Errorf("oracle %s: epoch %d checkpoint: %w", label, st.Epoch, st.CkptErr)
		}
		run.Losses = append(run.Losses, st.Loss)
	}
	if !e.ReplicasInSync() {
		return nil, fmt.Errorf("oracle %s: replicas diverged", label)
	}
	for _, p := range e.Params() {
		run.Params = append(run.Params, p.Value.Clone())
	}
	return run, nil
}

// resumeRun trains half the epochs with checkpointing, abandons the engine
// (the "kill"), restores the latest snapshot into a fresh engine and
// finishes — the trajectory must still match the reference. Each mode
// snapshots into its own subdirectory of CkptDir.
func resumeRun(ds *dataset.Dataset, base engine.Options, opt OracleOptions, mode engine.Mode) (*PolicyRun, error) {
	label := fmt.Sprintf("%s/%dw+resume", mode, opt.Workers)
	k := opt.Epochs / 2
	if k == 0 {
		k = 1
	}
	store, err := ckpt.OpenStore(filepath.Join(opt.CkptDir, string(mode)))
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", label, err)
	}
	opts := base
	opts.Workers = opt.Workers
	opts.Mode = mode

	first := opts
	first.Ckpt = &ckpt.Saver{Store: store, Every: 1}
	run := &PolicyRun{Label: label}
	e1, err := newEngine(ds, first)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", label, err)
	}
	for i := 0; i < k; i++ {
		st := e1.RunEpoch()
		if st.CkptErr != nil {
			e1.Close()
			return nil, fmt.Errorf("oracle %s: epoch %d checkpoint: %w", label, st.Epoch, st.CkptErr)
		}
		run.Losses = append(run.Losses, st.Loss)
	}
	e1.Close() // the crash

	snap, err := store.LoadLatest()
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", label, err)
	}
	if snap == nil {
		return nil, fmt.Errorf("oracle %s: no snapshot after %d checkpointed epochs", label, k)
	}
	e2, err := newEngine(ds, opts)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", label, err)
	}
	defer e2.Close()
	if err := e2.Restore(snap); err != nil {
		return nil, fmt.Errorf("oracle %s: %w", label, err)
	}
	for i := k; i < opt.Epochs; i++ {
		run.Losses = append(run.Losses, e2.RunEpoch().Loss)
	}
	if !e2.ReplicasInSync() {
		return nil, fmt.Errorf("oracle %s: replicas diverged after resume", label)
	}
	for _, p := range e2.Params() {
		run.Params = append(run.Params, p.Value.Clone())
	}
	return run, nil
}

// compareRuns checks run against the reference trajectory.
func compareRuns(ref, run PolicyRun, lossTol, paramTol float64) error {
	if len(run.Losses) != len(ref.Losses) {
		return fmt.Errorf("oracle %s: %d epochs, reference has %d", run.Label, len(run.Losses), len(ref.Losses))
	}
	for i := range ref.Losses {
		if diff := math.Abs(run.Losses[i] - ref.Losses[i]); diff > lossTol*math.Max(1, math.Abs(ref.Losses[i])) {
			return fmt.Errorf("oracle %s: epoch %d loss %.9g, reference %.9g (diff %.3g > tol %.3g)",
				run.Label, i+1, run.Losses[i], ref.Losses[i], diff, lossTol)
		}
	}
	if len(run.Params) != len(ref.Params) {
		return fmt.Errorf("oracle %s: %d params, reference has %d", run.Label, len(run.Params), len(ref.Params))
	}
	for k := range ref.Params {
		a, b := ref.Params[k], run.Params[k]
		if !a.SameShape(b) {
			return fmt.Errorf("oracle %s: param %d shape %dx%d vs %dx%d",
				run.Label, k, b.Rows(), b.Cols(), a.Rows(), a.Cols())
		}
		scale := 1.0
		for _, v := range a.Data() {
			if m := math.Abs(float64(v)); m > scale {
				scale = m
			}
		}
		if diff := a.MaxAbsDiff(b); diff > paramTol*scale {
			return fmt.Errorf("oracle %s: param %d deviates by %.3g (> %.3g)",
				run.Label, k, diff, paramTol*scale)
		}
	}
	return nil
}
