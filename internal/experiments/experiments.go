// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) at this reproduction's scale. Each experiment is a
// function returning structured rows; cmd/nsbench prints them and
// bench_test.go wraps them as benchmarks. EXPERIMENTS.md records the
// paper-reported numbers next to what these functions measure.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// Scale bounds an experiment's size so the full suite stays runnable on one
// machine; Quick trims it further for smoke tests.
type Scale struct {
	// Workers is the simulated cluster size m (the paper uses 16 physical
	// nodes; 8 in-process workers exhibit the same tradeoffs at our graph
	// scale).
	Workers int
	// Epochs is how many measured epochs each timing averages (after one
	// warmup epoch).
	Epochs int
	// Graphs is the dataset subset for multi-graph experiments.
	Graphs []string
}

// DefaultScale is the full experiment configuration.
func DefaultScale() Scale {
	return Scale{Workers: 8, Epochs: 3, Graphs: dataset.BigGraphNames()}
}

// QuickScale is a cut-down configuration for smoke tests and -short runs.
func QuickScale() Scale {
	return Scale{Workers: 4, Epochs: 1, Graphs: []string{"google", "reddit"}}
}

// Row is one printable result line.
type Row struct {
	Label  string
	Values map[string]float64
	Order  []string // column order for printing
}

// Format renders the row.
func (r Row) Format() string {
	s := fmt.Sprintf("%-24s", r.Label)
	for _, k := range r.Order {
		s += fmt.Sprintf("  %s=%.2f", k, r.Values[k])
	}
	return s
}

// newRow builds a row preserving column order.
func newRow(label string, kv ...any) Row {
	r := Row{Label: label, Values: map[string]float64{}}
	for i := 0; i+1 < len(kv); i += 2 {
		k := kv[i].(string)
		r.Order = append(r.Order, k)
		switch v := kv[i+1].(type) {
		case float64:
			r.Values[k] = v
		case int:
			r.Values[k] = float64(v)
		case time.Duration:
			r.Values[k] = float64(v.Microseconds()) / 1000
		default:
			panic(fmt.Sprintf("experiments: bad value %T", kv[i+1]))
		}
	}
	return r
}

// defaultTracer, when set via SetTracer, is attached to every engine an
// experiment builds that does not bring its own tracer, so a whole nsbench
// run can be traced with one -trace flag.
var defaultTracer *obs.Tracer

// SetTracer installs a tracer that epochMillis-driven experiments record
// spans into. Pass nil to detach.
func SetTracer(t *obs.Tracer) { defaultTracer = t }

// epochMillis builds the engine, runs one warmup epoch plus `epochs`
// measured epochs, and returns the mean per-epoch wall time in milliseconds.
func epochMillis(ds *dataset.Dataset, opts engine.Options, epochs int) float64 {
	return tunedMillis(ds, opts, nil, epochs)
}

// tunedMillis is epochMillis with tune handed to engine.PlanFor.
func tunedMillis(ds *dataset.Dataset, opts engine.Options, tune func(*hybrid.Planner, *hybrid.Mode), epochs int) float64 {
	if opts.Tracer == nil {
		opts.Tracer = defaultTracer
	}
	plan, err := engine.PlanFor(ds, opts, tune)
	var e *engine.Engine
	if err == nil {
		e, err = engine.New(ds, plan, opts)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	defer e.Close()
	e.RunEpoch()
	// Collect before timing so another configuration's garbage is not
	// charged to this one — on a single-core host GC pauses are the main
	// source of run-to-run variance.
	runtime.GC()
	start := time.Now()
	for i := 0; i < epochs; i++ {
		e.RunEpoch()
	}
	return float64(time.Since(start).Microseconds()) / 1000 / float64(epochs)
}

// stdOpts returns the baseline engine options for an experiment.
func stdOpts(mode engine.Mode, model nn.ModelKind, workers int, profile comm.NetworkProfile) engine.Options {
	return engine.Options{
		Workers: workers, Mode: mode, Model: model,
		Profile: profile, Seed: 20220612,
	}
}

// withRLP applies the three communication optimisations (ring scheduling,
// lock-free enqueue, overlap).
func withRLP(o engine.Options, r, l, p bool) engine.Options {
	o.Ring, o.LockFree, o.Overlap = r, l, p
	return o
}

// load fetches a registry dataset, panicking on unknown names (experiment
// tables are static).
func load(name string) *dataset.Dataset {
	ds, err := dataset.LoadByName(name)
	if err != nil {
		panic(err)
	}
	return ds
}

// Table2 prints the dataset registry with synthetic and paper-scale stats.
func Table2() []string {
	out := []string{dataset.Table2Header()}
	for _, name := range append(dataset.BigGraphNames(), dataset.CitationNames()...) {
		out = append(out, dataset.Table2Row(load(name)))
	}
	return out
}

// Fig2a compares vanilla DepCache and DepComm per-epoch time on four graph
// inputs (2-layer GCN, ECS profile), reproducing Figure 2(a).
func Fig2a(sc Scale) []Row {
	var rows []Row
	for _, name := range []string{"google", "pokec", "reddit", "livejournal"} {
		ds := load(name)
		cache := epochMillis(ds, stdOpts(engine.DepCache, nn.GCN, sc.Workers, comm.ProfileECS), sc.Epochs)
		commT := epochMillis(ds, stdOpts(engine.DepComm, nn.GCN, sc.Workers, comm.ProfileECS), sc.Epochs)
		rows = append(rows, newRow(name,
			"depcache_ms", cache, "depcomm_ms", commT, "cache_over_comm", cache/commT))
	}
	return rows
}

// Fig2b varies the hidden layer size on the Google graph (Figure 2(b)).
// Paper dims 64/256/640 scale to 8/32/80 alongside the 1/8 feature scaling.
func Fig2b(sc Scale) []Row {
	ds := load("google")
	var rows []Row
	for _, hidden := range []int{8, 32, 80} {
		oc := stdOpts(engine.DepCache, nn.GCN, sc.Workers, comm.ProfileECS)
		oc.Hidden = hidden
		om := stdOpts(engine.DepComm, nn.GCN, sc.Workers, comm.ProfileECS)
		om.Hidden = hidden
		cache := epochMillis(ds, oc, sc.Epochs)
		commT := epochMillis(ds, om, sc.Epochs)
		rows = append(rows, newRow(fmt.Sprintf("hidden=%d", hidden),
			"depcache_ms", cache, "depcomm_ms", commT, "cache_over_comm", cache/commT))
	}
	return rows
}

// Fig2c runs the same workload on the two cluster profiles (Figure 2(c)):
// the slow fabric (ECS) favours DepCache, the fast fabric (IBV) DepComm.
func Fig2c(sc Scale) []Row {
	ds := load("google")
	var rows []Row
	for _, p := range []comm.NetworkProfile{comm.ProfileECS, comm.ProfileIBV} {
		cache := epochMillis(ds, stdOpts(engine.DepCache, nn.GCN, sc.Workers, p), sc.Epochs)
		commT := epochMillis(ds, stdOpts(engine.DepComm, nn.GCN, sc.Workers, p), sc.Epochs)
		rows = append(rows, newRow(p.Name,
			"depcache_ms", cache, "depcomm_ms", commT, "cache_over_comm", cache/commT))
	}
	return rows
}
