// Package neutronstar is a Go reproduction of "NeutronStar: Distributed GNN
// Training with Hybrid Dependency Management" (SIGMOD 2022): a distributed
// full-graph GNN training system that decides, per remote vertex dependency
// and per layer, whether to replicate the dependency's multi-hop
// neighborhood locally (DepCache) or to fetch its representation over the
// network every epoch (DepComm), using a probed cost model and a greedy
// partitioner (the paper's Algorithm 4).
//
// The "cluster" is simulated in-process: workers are goroutine groups that
// communicate exclusively through a message fabric with configurable
// bandwidth and latency, so the distributed algorithms — master–mirror
// exchange, ring scheduling, overlap, gradient all-reduce — run for real, on one
// machine. All tensor math is genuine float32 computation; training
// converges and accuracy numbers are meaningful.
//
// Quick start:
//
//	ds, _ := neutronstar.LoadDataset("reddit")
//	s, _ := neutronstar.NewSession(ds, neutronstar.Config{
//		Workers: 8,
//		Engine:  neutronstar.EngineHybrid,
//		Model:   neutronstar.ModelGCN,
//	})
//	defer s.Close()
//	for _, ep := range s.Train(50) {
//		fmt.Printf("epoch %d loss %.4f (%.0f ms)\n", ep.Epoch, ep.Loss, ep.Millis)
//	}
//	fmt.Printf("test accuracy: %.2f%%\n", 100*s.Accuracy(neutronstar.SplitTest))
package neutronstar

import (
	"fmt"
	"io"
	"sort"
	"time"

	"neutronstar/internal/ckpt"
	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/serve"
	"neutronstar/internal/tensor"
)

// EngineKind selects the dependency-management strategy: a row of the
// engine's policy table, which validates it (engine.ModeNames lists the rows).
type EngineKind = engine.Mode

// The three engines of the paper, plus the tensor-parallel policy (DepTP,
// after NeutronTP), the replicated policy (DepRep, after CoFree-GNN), and the
// 3- and 4-way planners that mix them per layer. See POLICIES.md for the
// decision matrix.
const (
	EngineDepCache = engine.DepCache
	EngineDepComm  = engine.DepComm
	EngineHybrid   = engine.Hybrid
	EngineDepTP    = engine.DepTP
	EngineHybrid3  = engine.Hybrid3
	EngineDepRep   = engine.DepRep
	EngineHybrid4  = engine.Hybrid4
)

// ModelKind selects the GNN architecture; the engine validates it
// (nn.ModelKinds lists the architectures).
type ModelKind = nn.ModelKind

// The three models of the paper's evaluation.
const (
	ModelGCN = nn.GCN
	ModelGIN = nn.GIN
	ModelGAT = nn.GAT
	// ModelSAGE is a GraphSAGE-style max-pooling model (extension beyond the
	// paper's three evaluated architectures).
	ModelSAGE = nn.SAGE
)

// NetworkKind names a simulated cluster fabric: a preset of comm's table
// (comm.Profiles), which resolves and validates it.
type NetworkKind string

// Cluster presets: Local is unthrottled in-memory, ECS approximates the
// paper's 6 Gb/s Aliyun cluster regime, IBV the 100 Gb/s InfiniBand cluster.
const (
	NetworkLocal NetworkKind = "local"
	NetworkECS   NetworkKind = "ecs"
	NetworkIBV   NetworkKind = "ibv"
)

// Split selects a labeled vertex subset for evaluation.
type Split int

// Dataset splits.
const (
	SplitTrain Split = iota
	SplitVal
	SplitTest
)

// Config configures a training session. Zero values select sensible
// defaults: 1 worker, Hybrid engine, GCN, unthrottled network, chunk
// partitioning, Adam at learning rate 0.01.
type Config struct {
	Workers int
	Engine  EngineKind
	Model   ModelKind
	Network NetworkKind
	// Layers sets the propagation depth L (default 2, as in the paper); the
	// hidden width is the dataset's.
	Layers int
	// Ring, LockFree and Overlap are the paper's R/L/P optimisations.
	Ring, LockFree, Overlap bool
	// LR is Adam's learning rate (default 0.01).
	LR      float64
	Dropout float64
	Seed    uint64
	// MemBudgetBytes caps per-worker replica storage for the Hybrid engine.
	MemBudgetBytes int64
	// RepBudgetBytes caps per-worker replica storage for the DepRep/Hybrid4
	// engines (0 = unlimited, matching MemBudgetBytes's convention; use
	// Hybrid3 to exclude replication entirely).
	RepBudgetBytes int64
	// Metrics keeps the run's span log in memory (see Session.Metrics), the
	// input of the Chrome trace. Status needs no span log.
	Metrics bool
	// CkptDir enables checkpointing: a full training snapshot (parameters,
	// optimiser moments, RNG positions, loss history) is written into this
	// directory at every CkptEvery-th epoch barrier, and Resume restores the
	// newest one. Empty disables checkpointing.
	CkptDir string
	// CkptEvery is the checkpoint cadence in epochs (<=1 means every epoch).
	// The directory keeps the newest 3 snapshots.
	CkptEvery int
	// FaultSpec enables deterministic network fault injection, e.g.
	// "drop=0.05,jitter=1ms,seed=7" — see the grammar in internal/comm's
	// ParseFaultSpec. Faults degrade timing, never message content, so a
	// faulted run converges to the same losses as a clean one. Empty
	// disables injection.
	FaultSpec string
	// WatchRules enables the anomaly watchdog, e.g.
	// "stall=30s,regress=1.5,straggler=3.0" or "default" — see the grammar
	// in internal/obs's ParseWatchRules. Alerts are logged and served on
	// /healthwatch. Empty disables watching.
	// Both rule families are accepted: the epoch rules watch training, the
	// serving SLO rules a server built from ServeConfig in this process.
	WatchRules string
}

// Dataset is a graph with features, labels and train/val/test splits.
type Dataset struct {
	inner *dataset.Dataset
}

// LoadDataset generates one of the built-in synthetic datasets (see Names).
func LoadDataset(name string) (*Dataset, error) {
	ds, err := dataset.LoadByName(name)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

// DatasetNames lists the built-in datasets (the paper's Table 2 corpus).
func DatasetNames() []string { return dataset.Names() }

// NewDataset builds a custom dataset from a directed edge list (edges[k] =
// [src, dst]; dst aggregates from src), per-vertex feature rows, integer
// class labels, and a train fraction in (0, 1]; the remainder is split
// evenly between validation and test.
func NewDataset(numVertices int, edges [][2]int, features [][]float32, labels []int, numClasses int, hiddenDim int, seed uint64) (*Dataset, error) {
	if len(features) != numVertices || len(labels) != numVertices {
		return nil, fmt.Errorf("neutronstar: %d vertices but %d feature rows, %d labels",
			numVertices, len(features), len(labels))
	}
	if numVertices == 0 {
		return nil, fmt.Errorf("neutronstar: empty dataset")
	}
	es := make([]graph.Edge, len(edges))
	for i, e := range edges {
		es[i] = graph.Edge{Src: int32(e[0]), Dst: int32(e[1])}
	}
	g, err := graph.FromEdges(numVertices, es)
	if err != nil {
		return nil, err
	}
	ftr := tensor.FromRows(features)
	lbl := make([]int32, numVertices)
	for i, l := range labels {
		if l < 0 || l >= numClasses {
			return nil, fmt.Errorf("neutronstar: label %d out of [0,%d)", l, numClasses)
		}
		lbl[i] = int32(l)
	}
	inner := &dataset.Dataset{
		Spec: dataset.Spec{
			Name: "custom", Vertices: numVertices,
			FeatureDim: ftr.Cols(), NumClasses: numClasses, HiddenDim: hiddenDim,
			Seed: seed,
		},
		Graph: g, Features: ftr, Labels: lbl,
	}
	inner.TrainMask, inner.ValMask, inner.TestMask = dataset.SplitMasks(numVertices, tensor.NewRNG(seed^0x5EED))
	return &Dataset{inner: inner}, nil
}

// NumVertices returns |V|.
func (d *Dataset) NumVertices() int { return d.inner.NumVertices() }

// NumEdges returns |E|.
func (d *Dataset) NumEdges() int { return d.inner.NumEdges() }

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.inner.Spec.Name }

// EpochResult reports one training epoch.
type EpochResult struct {
	Epoch  int
	Loss   float64
	Millis float64
	// CkptErr reports a failed checkpoint save at this epoch (training
	// continued; the previous snapshot is still intact on disk).
	CkptErr error
}

// Session is a live distributed training run.
type Session struct {
	ds    *Dataset
	eng   *engine.Engine
	trace *obs.Tracer
	store *ckpt.Store
	rec   *obs.FlightRecorder
	watch *obs.Watchdog
	hist  *obs.History
}

// NewSession builds the simulated cluster and plans dependency management
// per the configured engine. Close must be called when done.
func NewSession(ds *Dataset, cfg Config) (*Session, error) {
	opts, err := toEngineOptions(cfg)
	if err != nil {
		return nil, err
	}
	var store *ckpt.Store
	if cfg.CkptDir != "" {
		store, err = ckpt.OpenStore(cfg.CkptDir)
		if err != nil {
			return nil, err
		}
		opts.Ckpt = &ckpt.Saver{Store: store, Every: cfg.CkptEvery}
	}
	// Every session records its epoch flights — cells, straggler indices and
	// each epoch's critical path (on /epochs and via SlowEpochReport): a stage
	// switch is one append to its worker's log, cheap enough to keep always-on.
	rec := obs.NewFlightRecorder()
	opts.Recorder = rec
	// Every session keeps a metric history, sampled at each epoch barrier
	// (see Train); the watchdog judges its rules on every sample.
	hist := obs.NewHistory(obs.Default(), 0)
	var watch *obs.Watchdog
	if cfg.WatchRules != "" {
		rules, err := obs.ParseWatchRules(cfg.WatchRules)
		if err != nil {
			return nil, err
		}
		watch = obs.NewWatchdog(rules, rec, hist, nil)
		hist.SetOnSample(func() { watch.Check() })
	}
	plan, err := planFor(ds.inner, cfg, opts)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(ds.inner, plan, opts)
	if err != nil {
		return nil, err
	}
	return &Session{ds: ds, eng: eng, trace: opts.Tracer, store: store, rec: rec, watch: watch, hist: hist}, nil
}

// Resume restores the newest snapshot in Config.CkptDir and reports whether
// one was loaded: (false, nil) means an empty checkpoint directory — the
// normal state of a fresh run. A snapshot taken under a different dataset,
// partitioning, model or seed is rejected with an error.
func (s *Session) Resume() (bool, error) {
	if s.store == nil {
		return false, fmt.Errorf("neutronstar: session has no checkpoint directory (set Config.CkptDir)")
	}
	snap, err := s.store.LoadLatest()
	if err != nil {
		return false, err
	}
	if snap == nil {
		return false, nil
	}
	if err := s.eng.Restore(snap); err != nil {
		return false, err
	}
	return true, nil
}

// History returns every completed epoch's result, including epochs restored
// from a snapshot — a resumed run reports a continuous loss curve.
func (s *Session) History() []EpochResult {
	hist := s.eng.History()
	out := make([]EpochResult, 0, len(hist))
	for _, st := range hist {
		out = append(out, EpochResult{
			Epoch: st.Epoch, Loss: st.Loss,
			Millis: float64(st.Duration.Microseconds()) / 1000,
		})
	}
	return out
}

// planFor is the plan step with the Config's planner inputs applied: the
// cache and replica budgets.
func planFor(ds *dataset.Dataset, cfg Config, opts engine.Options) (*engine.Plan, error) {
	return engine.PlanFor(ds, opts, func(p *hybrid.Planner, _ *hybrid.Mode) {
		p.MemBudget, p.RepBudget = cfg.MemBudgetBytes, cfg.RepBudgetBytes
	})
}

func toEngineOptions(cfg Config) (engine.Options, error) {
	if cfg.Network == "" {
		cfg.Network = NetworkLocal
	}
	profile, err := comm.ProfileNamed(string(cfg.Network))
	if err != nil {
		return engine.Options{}, err
	}
	var tracer *obs.Tracer
	if cfg.Metrics {
		tracer = obs.NewTracer()
	}
	if cfg.FaultSpec != "" {
		profile.Fault, err = comm.ParseFaultSpec(cfg.FaultSpec)
		if err != nil {
			return engine.Options{}, err
		}
	}
	return engine.Options{
		Workers:  cfg.Workers,
		Mode:     cfg.Engine,
		Model:    cfg.Model,
		Layers:   cfg.Layers,
		Profile:  profile,
		Ring:     cfg.Ring,
		LockFree: cfg.LockFree,
		Overlap:  cfg.Overlap,
		LR:       float32(cfg.LR),
		Dropout:  float32(cfg.Dropout),
		Seed:     cfg.Seed,
		Tracer:   tracer,
		// Training-time tensor storage is always recycled through per-worker
		// arenas; results are bit-identical to fresh allocation.
		Pool: tensor.NewPool(),
	}, nil
}

// Train runs the given number of epochs and returns per-epoch results.
func (s *Session) Train(epochs int) []EpochResult {
	out := make([]EpochResult, 0, epochs)
	for i := 0; i < epochs; i++ {
		st := s.eng.RunEpoch()
		// The epoch barrier is the natural sampling point of a training run:
		// the per-epoch gauges have just advanced, and the watchdog judges
		// the new epoch record. Periodic sampling between barriers is the
		// history's own Start.
		s.hist.Sample(time.Now())
		out = append(out, EpochResult{
			Epoch: st.Epoch, Loss: st.Loss,
			Millis:  float64(st.Duration.Microseconds()) / 1000,
			CkptErr: st.CkptErr,
		})
	}
	return out
}

// Status is a point-in-time snapshot of a session, served as JSON by the
// debug server's /status endpoint.
type Status struct {
	Dataset string `json:"dataset"`
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
	// Epoch/Loss are the flight recorder's newest record: the last epoch
	// this process trained, zero until it completes one (also after Resume).
	Epoch int     `json:"epoch"`
	Loss  float64 `json:"loss"`
	// BytesSent / BytesReceived are the wire bytes of the epochs the flight
	// recorder retains (the most recent 4096). Every message is counted once
	// at its sender and once at its receiver, so over completed epochs the
	// two directions are equal.
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
	// ComputeBusy / CommBusy are, per worker, the shares of training wall time
	// over the retained epochs spent in compute stages and in communication
	// stages (obs.Stage.Class — the live view of the paper's Figure 13
	// utilisation). A worker is in one stage at a time, so the two never sum
	// to more than 1; the rest is the barrier.
	ComputeBusy map[int]float64 `json:"compute_busy,omitempty"`
	CommBusy    map[int]float64 `json:"comm_busy,omitempty"`
}

// Status snapshots the session. Safe to call concurrently with Train — the
// debug server polls it from its own goroutines. It reads only the flight
// recorder's retained records, so a poll costs the same however long the run.
func (s *Session) Status() Status {
	st := Status{Dataset: s.ds.Name(), Engine: string(s.eng.Mode()), Workers: s.eng.NumWorkers()}
	recs := s.rec.Snapshot()
	if n := len(recs); n > 0 {
		st.Epoch, st.Loss = recs[n-1].Epoch, recs[n-1].Loss
	}

	class := make(map[string]int, obs.NumStages)
	for i, name := range obs.StageNames() {
		class[name] = obs.Stage(i).Class()
	}
	var wall float64
	var bytes int64
	compute, comm := map[int]float64{}, map[int]float64{}
	for _, r := range recs {
		wall += r.WallSeconds
		for _, c := range r.Cells {
			bytes += c.Bytes
			switch class[c.Stage] {
			case obs.ClassCompute:
				compute[c.Worker] += c.Seconds
			case obs.ClassComm:
				comm[c.Worker] += c.Seconds
			}
		}
	}
	st.BytesSent, st.BytesReceived = bytes/2, bytes/2
	if wall > 0 {
		for w := range compute {
			compute[w] /= wall
		}
		for w := range comm {
			comm[w] /= wall
		}
		st.ComputeBusy, st.CommBusy = compute, comm
	}
	return st
}

// TrainEpoch runs a single epoch.
func (s *Session) TrainEpoch() EpochResult {
	return s.Train(1)[0]
}

// Accuracy evaluates classification accuracy on the chosen split with the
// current parameters, read out by the single-machine full-graph forward pass
// (engine.ReferenceAccuracy).
func (s *Session) Accuracy(split Split) float64 {
	switch split {
	case SplitTrain:
		return s.eng.Evaluate(s.ds.inner.TrainMask)
	case SplitVal:
		return s.eng.Evaluate(s.ds.inner.ValMask)
	default:
		return s.eng.Evaluate(s.ds.inner.TestMask)
	}
}

// CacheBytes returns the total replica storage the engine allocated — zero
// for pure DepComm, maximal for pure DepCache.
func (s *Session) CacheBytes() int64 { return s.eng.CacheBytes() }

// PreprocessMillis returns the hybrid dependency-partitioning time.
func (s *Session) PreprocessMillis() float64 {
	return float64(s.eng.PreprocessTime.Microseconds()) / 1000
}

// DependencySummary reports, per layer, how many remote dependencies were
// cached versus communicated across all workers.
func (s *Session) DependencySummary() (cached, communicated []int) {
	decs := s.eng.Decisions()
	if len(decs) == 0 {
		return nil, nil
	}
	L := len(decs[0].R)
	cached = make([]int, L)
	communicated = make([]int, L)
	for _, d := range decs {
		for l := 0; l < L; l++ {
			cached[l] += len(d.R[l])
			communicated[l] += len(d.C[l])
		}
	}
	return cached, communicated
}

// StageBreakdown is one stage's per-epoch mean attribution across the run:
// how many seconds the cluster spent in the stage each epoch, and how many
// bytes and messages the stage moved.
type StageBreakdown struct {
	Stage   string
	Seconds float64
	Bytes   int64
	Msgs    int64
}

// StageReport aggregates the flight recorder into per-stage per-epoch means.
// Empty before the first trained epoch. Stages that never accumulated time
// or traffic are omitted.
func (s *Session) StageReport() []StageBreakdown {
	recs := s.rec.Snapshot()
	if len(recs) == 0 {
		return nil
	}
	n := float64(len(recs))
	var out []StageBreakdown
	for _, stage := range obs.StageNames() {
		var sec float64
		var b, m int64
		for i := range recs {
			sec += recs[i].StageSeconds(stage)
			b += recs[i].StageBytes(stage)
			m += recs[i].StageMsgs(stage)
		}
		if sec == 0 && b == 0 && m == 0 {
			continue
		}
		out = append(out, StageBreakdown{Stage: stage, Seconds: sec / n,
			Bytes: int64(float64(b) / n), Msgs: int64(float64(m) / n)})
	}
	return out
}

// FlightTimeline returns the per-epoch flight records plus the cost-model
// validation as a JSON-marshalable value — the payload of the debug server's
// /epochs endpoint. Safe to call concurrently with Train.
func (s *Session) FlightTimeline() any {
	out := map[string]any{"epochs": s.rec.Snapshot()}
	if cr := s.eng.CostReport(); cr != nil {
		out["cost_report"] = cr
	}
	return out
}

// Watchdog returns the session's anomaly watchdog, or nil if
// Config.WatchRules was empty.
func (s *Session) Watchdog() *obs.Watchdog { return s.watch }

// MetricHistory returns the session's metric time-series ring buffer — the
// payload source of the debug server's /timeline endpoint. It is sampled at
// every epoch barrier; call its Start for periodic sampling between epochs
// (the session's Close stops it either way).
func (s *Session) MetricHistory() *obs.History { return s.hist }

// HealthWatch returns the watchdog's health report — the payload of the
// debug server's /healthwatch endpoint. Without a watchdog it reports
// healthy with no rules.
func (s *Session) HealthWatch() obs.HealthReport { return s.watch.Health() }

// SlowEpochReport renders the "why was this epoch slow" analysis as
// human-readable lines: the run's slowest epoch, its critical-path
// breakdown, and the straggler verdict. Empty before the first trained
// epoch.
func (s *Session) SlowEpochReport() []string {
	recs := s.rec.Snapshot()
	if len(recs) == 0 {
		return nil
	}
	slow, wallSum := recs[0], 0.0
	for _, r := range recs {
		wallSum += r.WallSeconds
		if r.WallSeconds > slow.WallSeconds {
			slow = r
		}
	}
	mean := wallSum / float64(len(recs))
	lines := []string{fmt.Sprintf(
		"slowest epoch: %d at %.3fs (run mean %.3fs, %.2fx)",
		slow.Epoch, slow.WallSeconds, mean, slow.WallSeconds/mean)}
	if slow.Workers > 1 && slow.StragglerIndex > 0 {
		lines = append(lines, fmt.Sprintf(
			"straggler index %.2f (worker %d slowest, barrier share %.0f%%)",
			slow.StragglerIndex, slow.SlowestWorker, 100*slow.BarrierShare))
	}
	if p := slow.CritPath; p != nil {
		label, share := p.Dominant()
		lines = append(lines, fmt.Sprintf(
			"critical path: %d spans covering %.3fs of %.3fs wall; dominant %s at %.0f%%",
			len(p.Spans), p.CoveredSeconds, p.WallSeconds, label, 100*share))
		type kv struct {
			label string
			sec   float64
		}
		var parts []kv
		for l, sec := range p.Breakdown() {
			parts = append(parts, kv{l, sec})
		}
		sort.Slice(parts, func(i, j int) bool {
			if parts[i].sec != parts[j].sec {
				return parts[i].sec > parts[j].sec
			}
			return parts[i].label < parts[j].label
		})
		for i, part := range parts {
			if i == 3 {
				break // the top three explain the epoch; the rest is noise
			}
			lines = append(lines, fmt.Sprintf("  %-24s %.3fs (%.0f%%)",
				part.label, part.sec, 100*part.sec/p.CoveredSeconds))
		}
	}
	return lines
}

// CostSummary renders the cost-model validation (probed vs. fitted factors,
// per-layer residuals, counterfactual plan flips) as human-readable lines.
// Empty before the first trained epoch.
func (s *Session) CostSummary() []string {
	cr := s.eng.CostReport()
	if cr == nil {
		return nil
	}
	lines := []string{fmt.Sprintf(
		"cost model: probed Tv=%.3g Te=%.3g Tc=%.3g; fitted Tv=%.3g Te=%.3g Tc=%.3g (%s)",
		cr.Probed.Tv, cr.Probed.Te, cr.Probed.Tc,
		cr.Fitted.Tv, cr.Fitted.Te, cr.Fitted.Tc, cr.FitMethod)}
	for _, lr := range cr.Layers {
		lines = append(lines, fmt.Sprintf(
			"layer %d: compute meas/pred %.3g/%.3gs (res %+.0f%%), comm meas/pred %.3g/%.3gs (res %+.0f%%), comm bytes meas/dense %d/%d",
			lr.Layer, lr.MeasComputeSeconds, lr.PredComputeSeconds, 100*lr.ComputeResidual,
			lr.MeasCommSeconds, lr.PredCommSeconds, 100*lr.CommResidual,
			lr.MeasCommBytes, lr.DenseCommBytes))
	}
	flip := fmt.Sprintf(
		"counterfactual (fitted costs): %d/%d decisions flip (%d cache->comm, %d comm->cache)",
		cr.Flips.Flips(), cr.Flips.Slots, cr.Flips.CacheToComm, cr.Flips.CommToCache)
	if cr.Flips.ToTP > 0 || cr.Flips.FromTP > 0 {
		flip += fmt.Sprintf(" + %d layers to TP, %d from TP", cr.Flips.ToTP, cr.Flips.FromTP)
	}
	if cr.Flips.ToRep > 0 || cr.Flips.FromRep > 0 {
		flip += fmt.Sprintf(" + %d layers to rep, %d from rep", cr.Flips.ToRep, cr.Flips.FromRep)
	}
	lines = append(lines, flip)
	return lines
}

// Metrics returns the run's span tracer — every worker's intervals and the
// fabric's delivery stamps — or nil if Config.Metrics was false.
func (s *Session) Metrics() *obs.Tracer { return s.trace }

// ReplicationFactor reports the vertex replication factor of the loaded plan,
// (|V| + replicas) / |V|, for engines that materialised a replication pass
// (DepRep); 1.0 otherwise.
func (s *Session) ReplicationFactor() float64 { return s.eng.ReplicationFactor() }

// Close tears down the simulated cluster and stops the metric history's
// periodic sampler.
func (s *Session) Close() {
	s.hist.Stop()
	s.eng.Close()
}

// ServeConfig returns a serve.Config pre-filled with the session's graph,
// feature matrix and live model source, with the serving metrics in the
// process-wide obs.Default() registry the session's metric history and
// debug server read. The source's version advances with every optimiser
// step (and on LoadModel/Restore), so a co-located server's embedding cache
// goes stale exactly when training moves the parameters. Callers set pool
// sizes, batching and cache budget before handing it to serve.New.
func (s *Session) ServeConfig() serve.Config {
	return serve.Config{
		Graph:    s.ds.inner.Graph,
		Features: s.ds.inner.Features,
		Source:   serve.EngineSource(s.eng),
		Registry: obs.Default(),
	}
}

// SaveModel writes the session's snapshot to w, in the checkpoint format
// (CRC-checked). Any snapshot file is a valid LoadModel input.
func (s *Session) SaveModel(w io.Writer) error { return s.eng.SaveModel(w) }

// LoadModel copies the parameters of a snapshot written by SaveModel (or a
// checkpoint) into every worker replica. They must match the session's
// architecture; worker count, mode and seed may differ. A corrupt file is
// refused with no replica changed.
func (s *Session) LoadModel(r io.Reader) error { return s.eng.LoadModel(r) }

// SaveDataset writes a dataset to dir in the plain-text directory format
// (see internal/dataset: meta.txt, graph.txt, features.txt, labels.txt).
func SaveDataset(d *Dataset, dir string) error { return d.inner.Save(dir) }

// LoadDatasetDir reads a dataset directory previously written by
// SaveDataset (or hand-authored in the same format).
func LoadDatasetDir(dir string) (*Dataset, error) {
	inner, err := dataset.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: inner}, nil
}
