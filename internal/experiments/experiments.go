// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) at this reproduction's scale. All is the experiment table:
// each entry picks its figure's graphs, sizes and epochs from a Scale and
// returns printable lines, and cmd/nsbench is its only front-end. Every
// timed epoch goes through timed, on the monotonic clock. EXPERIMENTS.md
// records the paper-reported numbers next to what these functions measure.
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
// machine; QuickScale trims it further for smoke tests.
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
	// Quick selects each experiment's cut-down variant: fewer epochs,
	// cluster sizes and graphs than the paper's figure.
	Quick bool
	// Tracer, when set, records the spans of every engine epochMillis times
	// that brings no tracer of its own, so a whole nsbench run can be traced
	// with one -trace flag.
	Tracer *obs.Tracer
}

// DefaultScale is the full experiment configuration.
func DefaultScale() Scale {
	return Scale{Workers: 8, Epochs: 3, Graphs: dataset.BigGraphNames()}
}

// QuickScale is a cut-down configuration for smoke tests and -short runs.
func QuickScale() Scale {
	return Scale{Workers: 4, Epochs: 1, Graphs: []string{"google", "reddit"}, Quick: true}
}

// Experiment is one table or figure of the evaluation.
type Experiment struct {
	Name string
	// Run measures the experiment at sc and returns its printable lines.
	Run func(sc Scale) []string
}

// All lists every experiment in the order `nsbench -exp all` runs them.
var All = []Experiment{
	{"table2", func(Scale) []string { return Table2() }},
	{"fig2a", rowsOf(Fig2a)},
	{"fig2b", rowsOf(Fig2b)},
	{"fig2c", rowsOf(Fig2c)},
	{"fig9", rowsOf(Fig9)},
	{"table3", func(sc Scale) []string {
		epochs := quickOr(sc, 2, 10)
		return append([]string{fmt.Sprintf("(runtime of %d epochs; the paper reports 100)", epochs)},
			formatRows(Table3(sc, epochs))...)
	}},
	{"fig10", rowsOf(Fig10)},
	{"fig11", func(sc Scale) []string {
		out := append([]string{"GCN on reddit:"}, formatRows(Fig11(sc, nn.GCN, "reddit"))...)
		if !sc.Quick {
			out = append(out, "GAT on orkut:")
			out = append(out, formatRows(Fig11(sc, nn.GAT, "orkut"))...)
		}
		return out
	}},
	{"fig12", func(sc Scale) []string {
		sizes := quickOr(sc, []int{1, 2, 4}, []int{1, 2, 4, 8, 16})
		var out []string
		for _, g := range paperGraphs(sc.Graphs, "pokec", "reddit", "orkut", "wiki") {
			out = append(out, formatRows(Fig12(sc, g, sizes))...)
		}
		return out
	}},
	{"fig13", func(sc Scale) []string {
		var out []string
		for _, rep := range Fig13(sc, quickOr(sc, "google", "orkut")) {
			out = append(out, fmt.Sprintf("%-12s accel_util=%.2f host_util=%.2f sample_util=%.2f net_peak=%.1fMB/s net_cv=%.2f recv=%.1fMB",
				rep.System, rep.AcceleratorUtil, rep.HostUtil, rep.SampleUtil,
				rep.NetPeakMBs, rep.NetSmoothnessCV, rep.TotalRecvMB))
		}
		return out
	}},
	{"fig14", func(sc Scale) []string {
		var out []string
		for _, c := range Fig14(sc, quickOr(sc, 6, 45), quickOr(sc, 3, 5), 0.95) {
			out = append(out, fmt.Sprintf("%-18s best=%.4f time_to_95%%=%.1fs", c.System, c.Best, c.TimeToTarget))
			for _, p := range c.Points {
				out = append(out, fmt.Sprintf("    t=%6.1fs epoch=%3d acc=%.4f", p.Seconds, p.Epoch, p.Accuracy))
			}
		}
		return out
	}},
	{"fig15", func(sc Scale) []string {
		sc.Graphs = paperGraphs(sc.Graphs, "reddit", "orkut", "wiki")
		return formatRows(Fig15(sc))
	}},
	{"table4", func(sc Scale) []string {
		sc.Graphs = paperGraphs(sc.Graphs, "google", "pokec", "livejournal", "reddit")
		return formatRows(Table4(sc))
	}},
	{"table5", rowsOf(Table5)},
	{"ablations", func(sc Scale) []string { return formatRows(Ablations(sc, quickOr(sc, "google", "reddit"))) }},
}

// rowsOf adapts a row-returning experiment to Experiment.Run.
func rowsOf(fn func(Scale) []Row) func(Scale) []string {
	return func(sc Scale) []string { return formatRows(fn(sc)) }
}

// quickOr returns quick at a quick scale and full otherwise.
func quickOr[T any](sc Scale, quick, full T) T {
	if sc.Quick {
		return quick
	}
	return full
}

// paperGraphs returns the paper's graph set for a figure when gs holds more
// graphs than it (the full scale's seven), and gs otherwise.
func paperGraphs(gs []string, paper ...string) []string {
	if len(gs) > len(paper) {
		return paper
	}
	return gs
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

// formatRows renders rows, one line each.
func formatRows(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Format()
	}
	return out
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
			r.Values[k] = millis(v)
		default:
			panic(fmt.Sprintf("experiments: bad value %T", kv[i+1]))
		}
	}
	return r
}

// millis converts a duration to milliseconds at microsecond resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// timed runs epoch n times and returns the elapsed time on the monotonic
// clock. It is the one timing loop of the package.
func timed(n int, epoch func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		epoch()
	}
	return time.Since(start)
}

// meanMillis runs one warmup epoch and returns the mean wall time of the
// next n epochs in milliseconds.
func meanMillis(n int, epoch func()) float64 {
	epoch()
	// Collect before timing so another configuration's garbage is not
	// charged to this one — on a single-core host GC pauses are the main
	// source of run-to-run variance.
	runtime.GC()
	return millis(timed(n, epoch)) / float64(n)
}

// epochMillis builds the engine and returns its mean per-epoch milliseconds
// over sc.Epochs measured epochs.
func epochMillis(sc Scale, ds *dataset.Dataset, opts engine.Options) float64 {
	return tunedMillis(sc, ds, opts, nil)
}

// tunedMillis is epochMillis with tune handed to engine.PlanFor.
func tunedMillis(sc Scale, ds *dataset.Dataset, opts engine.Options, tune func(*hybrid.Planner, *hybrid.Mode)) float64 {
	if opts.Tracer == nil {
		opts.Tracer = sc.Tracer
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
	return meanMillis(sc.Epochs, func() { e.RunEpoch() })
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
		cache := epochMillis(sc, ds, stdOpts(engine.DepCache, nn.GCN, sc.Workers, comm.ProfileECS))
		commT := epochMillis(sc, ds, stdOpts(engine.DepComm, nn.GCN, sc.Workers, comm.ProfileECS))
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
		cache := epochMillis(sc, ds, oc)
		commT := epochMillis(sc, ds, om)
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
		cache := epochMillis(sc, ds, stdOpts(engine.DepCache, nn.GCN, sc.Workers, p))
		commT := epochMillis(sc, ds, stdOpts(engine.DepComm, nn.GCN, sc.Workers, p))
		rows = append(rows, newRow(p.Name,
			"depcache_ms", cache, "depcomm_ms", commT, "cache_over_comm", cache/commT))
	}
	return rows
}
