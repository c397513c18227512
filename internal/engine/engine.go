package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neutronstar/internal/autograd"
	"neutronstar/internal/ckpt"
	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// Mode selects the dependency-management strategy.
type Mode string

const (
	// DepCache replicates every remote dependency's subtree (Algorithm 2).
	DepCache Mode = "depcache"
	// DepComm communicates every remote dependency per layer (Algorithm 3).
	DepComm Mode = "depcomm"
	// Hybrid splits dependencies by the Algorithm 4 cost model.
	Hybrid Mode = "hybrid"
	// DepTP runs every layer tensor-parallel: full graph structure on every
	// worker, features/aggregations/gradients sharded along the feature
	// dimension, dependency traffic replaced by slice-exchange collectives.
	// A model whose edge stage mixes columns (nn.SliceSeparable false) reads
	// every peer's whole owned block over the master–mirror exchange instead.
	DepTP Mode = "deptp"
	// Hybrid3 widens the planner to a per-layer 3-way choice: the Algorithm 4
	// cache/comm split competes against tensor-parallel suffixes on modeled
	// cost.
	Hybrid3 Mode = "hybrid3"
	// DepRep replicates every layer's remote dependencies as local vertex
	// copies (CoFree-GNN's vertex cut): after a one-time replica feature
	// broadcast, each worker computes all layers entirely locally and the
	// replica gradients reconcile through the parameter all-reduce at the
	// epoch barrier — zero per-layer dependency traffic.
	DepRep Mode = "deprep"
	// Hybrid4 widens the planner once more: replicated layer suffixes compete
	// against the hybrid3 family on modeled cost, gated by the planner's
	// RepBudget.
	Hybrid4 Mode = "hybrid4"
)

// policy is one row of the policy table: everything the engine knows about a
// Mode beyond its name. The dataflow each layer runs is not here — it follows
// from the Decisions the planner mode returns (see buildWorkerPlan).
type policy struct {
	mode Mode
	// plan is the planner mode that derives the engine's Decisions.
	plan hybrid.Mode
	// replan is the candidate family the cost-model counterfactual re-plans
	// with under probed and fitted costs: the widest one that contains the
	// policy, so the diff can report flips into or out of tensor parallelism
	// and replication for the engines that can run them.
	replan hybrid.Mode
}

// policies is the policy table, in declaration order. Adding a policy is one
// row here (plus its dataflow, if it needs a new one): PlanFor, New, ModeNames,
// the counterfactual, the facade and the CLIs read it.
var policies = []policy{
	{DepCache, hybrid.ModeAllCache, hybrid.ModeHybrid},
	{DepComm, hybrid.ModeAllComm, hybrid.ModeHybrid},
	{Hybrid, hybrid.ModeHybrid, hybrid.ModeHybrid},
	{DepTP, hybrid.ModeAllTP, hybrid.ModeHybrid3},
	{Hybrid3, hybrid.ModeHybrid3, hybrid.ModeHybrid3},
	{DepRep, hybrid.ModeAllRep, hybrid.ModeHybrid4},
	{Hybrid4, hybrid.ModeHybrid4, hybrid.ModeHybrid4},
}

// ModeNames lists every engine mode string, in declaration order — the
// single source of truth for CLI flag validation and the doclint
// flag-to-doc cross-check.
func ModeNames() []string {
	names := make([]string, len(policies))
	for i, p := range policies {
		names[i] = string(p.mode)
	}
	return names
}

// policyOf looks mode up in the policy table.
func policyOf(mode Mode) (policy, error) {
	for _, p := range policies {
		if p.mode == mode {
			return p, nil
		}
	}
	return policy{}, fmt.Errorf("engine: unknown mode %q (valid: %s)", mode, strings.Join(ModeNames(), ", "))
}

// Options configures an Engine.
type Options struct {
	// Workers is the simulated cluster size m.
	Workers int
	// Mode selects the dependency-management policy, one of ModeNames()
	// (default Hybrid): the row PlanFor decides and the cost-model
	// counterfactual re-plans under.
	Mode Mode
	// Model selects the GNN architecture; Hidden overrides the dataset's
	// default hidden dimension when > 0; Layers sets the propagation depth L
	// (default 2, as in all of the paper's experiments — the machinery
	// supports arbitrary depth, with dependency subtrees growing accordingly).
	Model  nn.ModelKind
	Hidden int
	Layers int
	// Profile is the simulated network; default ProfileLocal (unthrottled).
	// Its Fault spec, when set, injects seeded drops, delays and duplicates
	// with retransmission; faults move timing only, never content.
	Profile comm.NetworkProfile
	// Ring enables ring-based communication scheduling (the paper's "R").
	Ring bool
	// LockFree enables lock-free parallel message enqueuing ("L").
	LockFree bool
	// Overlap enables communication/computation overlapping ("P").
	Overlap bool
	// ParamServer replaces the gradient all-reduce with a parameter-server
	// update: workers push gradients to worker 0, which applies the
	// optimiser once and broadcasts fresh parameters (the alternative the
	// paper notes the All-Reduce model can be swapped for, §4.1).
	ParamServer bool
	// Broadcast widens the plan's send sets to ROC's whole blocks: above
	// layer 1 a worker sends its entire owned representation block to every
	// peer that needs any of it, over the same packed exchange, and the
	// receiver's edges read the rows they need in place. This reproduces the
	// communication volume the paper measured in ROC (§5.3); the default
	// (false) is NeutronStar's source-specific chunking.
	Broadcast bool
	// LR is the Adam learning rate (default 0.01).
	LR float32
	// Dropout applies during training (default 0).
	Dropout float32
	// Seed fixes model init and dropout streams.
	Seed uint64
	// Tracer, when non-nil, receives the run's span log — every worker's
	// clock emits its intervals onto it — and the fabric's delivery stamps:
	// the input of the utilisation series (Fig. 13) and of the Chrome trace.
	Tracer *obs.Tracer
	// Ckpt, when non-nil, saves a snapshot at every due epoch barrier. A
	// failed save is reported on the epoch's EpochStats, never fatal.
	Ckpt *ckpt.Saver
	// Recorder, when non-nil, receives per-stage time/byte attribution for
	// every epoch (see obs.FlightRecorder). With Recorder and Tracer both
	// nil the workers' clocks are nil and every phase call is a no-op that
	// allocates nothing.
	Recorder *obs.FlightRecorder
	// Pool, when non-nil, recycles training-time tensor storage (tape
	// intermediates, gradients, message payloads) through per-worker arenas
	// released at each epoch barrier. Nil reproduces the allocate-per-call
	// behaviour bit-for-bit.
	Pool *tensor.Pool
}

// withDefaults fills unset options and returns Mode's row of the policy
// table; an unknown mode or model is an error, and so is a learning rate
// that is NaN, infinite or negative (0 is the default).
func (o Options) withDefaults() (Options, policy, error) {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Mode == "" {
		o.Mode = Hybrid
	}
	if o.Model == "" {
		o.Model = nn.GCN
	}
	if !slices.Contains(nn.ModelKinds(), o.Model) {
		return o, policy{}, fmt.Errorf("engine: unknown model %q", o.Model)
	}
	if o.Layers <= 0 {
		o.Layers = 2
	}
	if o.LR == 0 {
		o.LR = 0.01
	}
	// NaN fails every comparison, so it would train on silently (to a NaN
	// loss), as would +Inf; a negative rate ascends the loss.
	if !(o.LR > 0) || math.IsInf(float64(o.LR), 1) {
		return o, policy{}, fmt.Errorf("engine: learning rate %g is not a finite positive number", o.LR)
	}
	pol, err := policyOf(o.Mode)
	return o, pol, err
}

// EpochStats reports one epoch's outcome.
type EpochStats struct {
	Epoch int
	// Loss is the mean training loss over all labeled vertices.
	Loss float64
	// Duration is the wall-clock epoch time (forward+backward+update).
	Duration time.Duration
	// CkptErr reports a failed checkpoint save at this epoch's barrier.
	// Training continues regardless: a full disk should not kill a run that
	// can still make progress.
	CkptErr error
}

// Engine trains one model on one dataset over a simulated cluster.
type Engine struct {
	opts Options
	// policy is opts.Mode's row of the policy table.
	policy  policy
	ds      *dataset.Dataset
	planner *hybrid.Planner // priced decs, under the Costs the validator checks
	decs    []*hybrid.Decision
	plans   []*workerPlan
	fabric  comm.Network
	states  []*workerState
	dims    []int
	// replicas is the vertex-cut replication pass's output for plans whose top
	// layer is replicated (nil otherwise); New cross-checks it against
	// the execution plans.
	replicas *partition.ReplicaPlan
	epoch    int
	// history accumulates every completed epoch's stats; it rides along in
	// snapshots so a resumed run reports a continuous loss curve.
	history []EpochStats
	// paramVersion counts parameter mutations (optimiser steps, LoadModel,
	// Restore). Serving caches key their freshness off it: any bump means
	// previously computed embeddings may be stale.
	paramVersion atomic.Uint64
	// probedPlan is replan under the probed costs, decided on first use and
	// kept: the cost report's counterfactual baseline never changes.
	probedPlan func() ([]*hybrid.Decision, error)
	// cost is the last CostReport and the epoch of the newest record it
	// read; the debug server asks for it while training runs.
	cost struct {
		mu    sync.Mutex
		rep   *CostReport
		epoch int
	}
	// tapeHook, set only by tests, sees every tape a worker creates (called
	// from the worker goroutines) so a test can inspect what was recorded.
	tapeHook func(worker int, tp *autograd.Tape)

	// PreprocessTime is the plan's DecideAll time (Table 3's "Preprocessing"
	// row).
	PreprocessTime time.Duration
}

// Plan is what the plan step hands the run step: Decisions, one per part —
// the planner's pick or any other plan it prices (hybrid.Planner.Candidates)
// — and the Planner that priced them, which the run step keeps for Charge
// and the cost-model counterfactual.
type Plan struct {
	Planner   *hybrid.Planner
	Decisions []*hybrid.Decision
	Time      time.Duration // DecideAll's: Table 3's "Preprocessing" row
}

// PlanFor is the plan step. It builds (ds, opts)'s planner — the Chunk
// partition over Workers, the host's probed T_v/T_e with Profile's T_c, dims
// from ds, Hidden and Layers, SliceTP from Model, and no cache or replica
// budget — and decides it under
// opts.Mode's policy row. tune, when non-nil, first sets what Options does
// not carry: another partition, fixed costs, budgets, or another planner
// mode.
func PlanFor(ds *dataset.Dataset, opts Options, tune func(p *hybrid.Planner, mode *hybrid.Mode)) (*Plan, error) {
	opts, pol, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	part, err := partition.New(partition.Chunk, ds.Graph, opts.Workers)
	if err != nil {
		return nil, err
	}
	hidden := ds.Spec.HiddenDim
	if opts.Hidden > 0 {
		hidden = opts.Hidden
	}
	dims := []int{ds.Spec.FeatureDim}
	for l := 1; l < opts.Layers; l++ {
		dims = append(dims, hidden)
	}
	costs := hostFactors()
	costs.Tc = costmodel.CommFactor(opts.Profile.BytesPerSec, opts.Profile.Latency)
	p := &hybrid.Planner{
		Graph: ds.Graph, Part: part, Dims: append(dims, ds.Spec.NumClasses), Costs: costs,
		SliceTP: nn.SliceSeparable(opts.Model),
	}
	mode := pol.plan
	if tune != nil {
		tune(p, &mode)
	}
	start := time.Now()
	decs, err := p.DecideAll(mode)
	if err != nil {
		return nil, err
	}
	return &Plan{Planner: p, Decisions: decs, Time: time.Since(start)}, nil
}

// NewEngine plans (ds, opts) and runs the plan: PlanFor, then New.
func NewEngine(ds *dataset.Dataset, opts Options) (*Engine, error) {
	plan, err := PlanFor(ds, opts, nil)
	if err != nil {
		return nil, err
	}
	return New(ds, plan, opts)
}

// New is the run step: it derives the execution plans of plan's Decisions
// and replicates the model onto every worker. It rejects a plan for another
// graph or cluster size, and Decisions that do not match the planner's
// partition or layer count.
func New(ds *dataset.Dataset, plan *Plan, opts Options) (*Engine, error) {
	opts, pol, err := opts.withDefaults()
	p := plan.Planner
	switch {
	case err != nil:
		return nil, err
	case p.Graph != ds.Graph:
		return nil, fmt.Errorf("engine: the plan is for another graph")
	case p.Part.NumParts != opts.Workers:
		return nil, fmt.Errorf("engine: a %d-part plan for %d workers", p.Part.NumParts, opts.Workers)
	case p.SliceTP != nn.SliceSeparable(opts.Model):
		return nil, fmt.Errorf("engine: a plan with SliceTP = %v for model %s", p.SliceTP, opts.Model)
	}
	L := len(p.Dims) - 1
	for w, d := range plan.Decisions {
		if len(d.R) != L || len(d.C) != L {
			return nil, fmt.Errorf("engine: worker %d's Decision has %d layers, the plan's dims %d", w, len(d.R), L)
		}
	}
	e := &Engine{
		opts: opts, policy: pol, ds: ds, planner: p, decs: plan.Decisions, dims: p.Dims,
		PreprocessTime: plan.Time,
	}
	e.probedPlan = sync.OnceValues(func() ([]*hybrid.Decision, error) { return e.replan(p.Costs) })
	e.plans, err = buildPlans(p, e.decs, opts.Broadcast)
	if err != nil {
		return nil, err
	}

	// The replication pass in internal/partition is the authoritative
	// statement of what a communication-free execution must hold locally. A
	// replicated top layer caches every dependency at level L-1, whose closure
	// is the whole boundary closure, so whichever policy produced such a plan,
	// its expansion must materialize exactly those sets; a disagreement means
	// one of the two closures is wrong — fail loudly rather than train against
	// a silently incomplete replica store. (Replication is a cluster-global
	// per-layer bit: worker 0's Decision speaks for all.)
	if e.decs[0].RepAt(L) {
		e.replicas = partition.BuildReplicas(ds.Graph, p.Part, L)
		for i, wp := range e.plans {
			for k := range wp.cachedCompute {
				if !slices.Equal(wp.cachedCompute[k], e.replicas.Sets[i][k]) {
					return nil, fmt.Errorf("engine: worker %d level %d: replication pass (%d replicas) and execution plan (%d) disagree",
						i, k, len(e.replicas.Sets[i][k]), len(wp.cachedCompute[k]))
				}
			}
		}
	}

	e.fabric = comm.NewFabric(opts.Workers, opts.Profile, opts.Tracer)
	if opts.Recorder != nil {
		// Each worker's sends and deliveries are attributed to its cells,
		// once per Send and once per deduplicated delivery (comm/stage.go).
		for i := 0; i < opts.Workers; i++ {
			e.fabric.Mailbox(i).SetStageRecorder(opts.Recorder, i)
		}
	}
	e.states = make([]*workerState, opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		model, err := nn.NewModel(opts.Model, e.dims, opts.Dropout, opts.Seed+7)
		if err != nil {
			e.fabric.Close()
			return nil, err
		}
		e.states[i] = newWorker(i, e, model)
	}
	if err := checkRectified(e.states[0].model, e.plans); err != nil {
		e.fabric.Close()
		return nil, err
	}
	return e, nil
}

// checkRectified rejects plans that move master–mirror rows of a layer that
// does not end in a ReLU. Above layer 1 those rows are the layer below's
// output and travel packed (comm.PackRows), and the gradient post leaves out
// their +0 entries: exact only where the rectifier's backward writes 0
// whatever arrives.
func checkRectified(model *nn.Model, plans []*workerPlan) error {
	for l := 2; l <= len(model.Layers); l++ {
		if model.Layers[l-2].Rectified() {
			continue
		}
		for _, p := range plans {
			if p.layers[l-1].sends {
				return fmt.Errorf("engine: layer %d sends mirror rows, but layer %d does not end in a ReLU", l, l-1)
			}
		}
	}
	return nil
}

// hostFactors probes T_v and T_e once per process: they describe the host,
// not the workload or the fabric, so every engine built in one run — over
// any network profile, faulted or not — plans against the same factors, and
// Algorithm 4's decisions stay deterministic across them. T_c is not timed;
// PlanFor derives it from the profile.
var hostFactors = sync.OnceValue(func() costmodel.Costs { return costmodel.Probe(0, 0) })

// Mode returns the engine's dependency-management mode.
func (e *Engine) Mode() Mode { return e.opts.Mode }

// NumWorkers returns the cluster size.
func (e *Engine) NumWorkers() int { return e.opts.Workers }

// Decisions exposes the per-worker dependency decisions (for reporting).
func (e *Engine) Decisions() []*hybrid.Decision { return e.decs }

// CacheBytes returns the total storage of remote vertices' rows across
// workers: replicas, and the layer-1 rows held instead of fetched.
func (e *Engine) CacheBytes() int64 {
	var b int64
	for _, p := range e.plans {
		b += p.cacheBytes + p.heldBytes
	}
	return b
}

// ReplicationFactor returns the vertex replication factor of a plan whose top
// layer is replicated ((|V| + feature replicas)/|V|, from the partition-level
// replication pass), or 1 for every other plan.
func (e *Engine) ReplicationFactor() float64 {
	if e.replicas == nil {
		return 1
	}
	return e.replicas.Factor()
}

// Close releases the fabric. The engine must not be used afterwards.
func (e *Engine) Close() { e.fabric.Close() }

// RunEpoch executes one synchronous training epoch across all workers and
// returns aggregate statistics.
func (e *Engine) RunEpoch() EpochStats {
	rec := e.opts.Recorder
	rec.BeginEpoch(e.epoch+1, e.opts.Workers, len(e.dims)-1)
	start := time.Now()
	type result struct {
		lossSum float64
		count   int
	}
	results := make([]result, len(e.states))
	var wg sync.WaitGroup
	for i, ws := range e.states {
		wg.Add(1)
		go func(i int, ws *workerState) {
			defer wg.Done()
			sum, n := ws.runEpoch(e.epoch)
			results[i] = result{lossSum: sum, count: n}
		}(i, ws)
	}
	wg.Wait()
	// Barrier: every worker is quiescent — all tapes, gradients and message
	// payloads from this epoch are dead — so their arena tensors can go back
	// to the pool for the next epoch. Nil arenas (pool disabled) no-op.
	for _, ws := range e.states {
		ws.arena.Release()
	}
	wall := time.Since(start)
	// Sum in worker-id order: float addition is not associative, so summing
	// in completion order would make the reported loss depend on goroutine
	// scheduling — same-seed runs must be bit-identical.
	var lossSum float64
	var count int
	for _, r := range results {
		lossSum += r.lossSum
		count += r.count
	}
	e.epoch++
	e.paramVersion.Add(1)
	st := EpochStats{Epoch: e.epoch, Duration: wall}
	if count > 0 {
		st.Loss = lossSum / float64(count)
	}
	e.history = append(e.history, st)
	// The epoch barrier has passed: every worker is quiescent, so the
	// snapshot sees one consistent cluster state.
	if e.opts.Ckpt.Due(e.epoch) {
		t0 := time.Now()
		err := e.opts.Ckpt.Save(e.Snapshot())
		rec.AddCheckpoint(time.Since(t0))
		if err != nil {
			st.CkptErr = err
		}
	}
	rec.EndEpoch(wall, st.Loss)
	return st
}

// Train runs epochs epochs and returns the stats of each.
func (e *Engine) Train(epochs int) []EpochStats {
	out := make([]EpochStats, 0, epochs)
	for i := 0; i < epochs; i++ {
		out = append(out, e.RunEpoch())
	}
	return out
}

// Params returns worker 0's model parameters (replicas are identical).
func (e *Engine) Params() []*nn.Param { return e.states[0].model.Params() }

// Model returns worker 0's model replica.
func (e *Engine) Model() *nn.Model { return e.states[0].model }

// Evaluate computes classification accuracy over the vertices selected by
// mask with the current parameters. The engine's passes are training epochs
// only: the read-out is the single-machine ReferenceForward of worker 0's
// replica, the evaluator the sampling baseline shares (ReferenceAccuracy).
func (e *Engine) Evaluate(mask []bool) float64 {
	return ReferenceAccuracy(e.ds, e.Model(), mask)
}

// ReplicasInSync reports whether all workers hold bit-identical parameters;
// training correctness depends on this invariant.
func (e *Engine) ReplicasInSync() bool {
	ref := e.states[0].model.Params()
	for _, ws := range e.states[1:] {
		ps := ws.model.Params()
		for k := range ref {
			if !ref[k].Value.Equal(ps[k].Value) {
				return false
			}
		}
	}
	return true
}

// ParamVersion returns the parameter mutation counter: it advances on every
// optimiser step (once per epoch), LoadModel and Restore. A serving layer
// sharing this engine compares versions to decide when its embedding caches
// went stale. Safe to call concurrently.
func (e *Engine) ParamVersion() uint64 { return e.paramVersion.Load() }

// CloneModel returns an inference copy (nn.Model.Clone) of the current
// parameters — a serving-side snapshot that stays stable while training
// mutates the replicas. Call it between epochs (the engine is externally
// synchronous), like Snapshot.
func (e *Engine) CloneModel() *nn.Model { return e.states[0].model.Clone() }
