package engine

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"neutronstar/internal/ckpt"
	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
)

// trainLosses runs a fresh engine for `epochs` and returns the loss curve.
func trainLosses(t *testing.T, opts Options, epochs int) []float64 {
	t.Helper()
	ds := testDataset(t, 300, 6, 3)
	e, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	out := make([]float64, 0, epochs)
	for _, st := range e.Train(epochs) {
		if st.CkptErr != nil {
			t.Fatalf("epoch %d checkpoint: %v", st.Epoch, st.CkptErr)
		}
		out = append(out, st.Loss)
	}
	return out
}

// pinnedRun is what TestSameSeedBitIdentical compares between two runs of one
// configuration: the loss curve, the last epoch's traffic, the plan and the
// trained parameters.
type pinnedRun struct {
	losses      []float64
	bytes, msgs int64
	plan        string // hash of every worker's R/C/TP/Rep
	params      string // hash of the trained parameters' bits
	shape       string // worker 0's per-layer cached/communicated counts and TP/Rep bits
	topRep      bool
	repFactor   float64
}

// runPinned trains a fresh engine under a flight recorder. bytes and msgs count
// every logical message of the last epoch once (the recorder attributes each
// at the sender and at the receiver).
func runPinned(t *testing.T, opts Options, costs costmodel.Costs, memBudget int64, epochs int) pinnedRun {
	t.Helper()
	rec := obs.NewFlightRecorder()
	opts.Recorder = rec
	e, err := newTuned(testDataset(t, 300, 6, 3), opts, fixedCosts(costs, memBudget))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var run pinnedRun
	for _, st := range e.Train(epochs) {
		run.losses = append(run.losses, st.Loss)
	}
	tail := rec.Tail(1)
	if len(tail) == 0 {
		t.Fatal("no flight record")
	}
	last := tail[0]
	for _, s := range obs.StageNames() {
		run.msgs += last.StageMsgs(s)
	}
	run.bytes, run.msgs = last.TotalBytes()/2, run.msgs/2
	h := fnv.New64a()
	for _, d := range e.Decisions() {
		fmt.Fprintln(h, d.R, d.C, d.TP, d.Rep)
	}
	run.plan = fmt.Sprintf("%016x", h.Sum64())
	h.Reset()
	for _, p := range e.Params() {
		for _, v := range p.Value.Data() {
			fmt.Fprintf(h, "%08x", math.Float32bits(v))
		}
	}
	run.params = fmt.Sprintf("%016x", h.Sum64())
	d0 := e.Decisions()[0]
	for l := range d0.R {
		run.shape += fmt.Sprintf("[R%d C%d tp=%v rep=%v]", len(d0.R[l]), len(d0.C[l]), d0.TPAt(l+1), d0.RepAt(l+1))
	}
	run.topRep = d0.RepAt(len(d0.R))
	run.repFactor = e.ReplicationFactor()
	return run
}

// TestSameSeedBitIdentical is the determinism regression: two runs with the
// same seed must produce bit-identical loss curves, traffic and plans, for
// every policy — which is what the worker-id-ordered loss summation in
// RunEpoch and the schedule-ordered gradient accumulation of every dataflow
// buy. The logged line per row is the behaviour pin a refactor is compared
// on: the same test at two commits must log the same lines.
func TestSameSeedBitIdentical(t *testing.T) {
	// Forced factors (no probe). mixed: Tv < Tc, so with layer 1 bound a
	// 2-layer GCN caches all of layer 2 (the greedy is all-or-nothing there)
	// while GAT caches some layer-2 dependencies and communicates the rest;
	// the deep rows' layer 3 is GCN's mixed plan, and with it the chunked
	// path over a cached block and fetched rows. repWins: traffic is
	// unaffordable and a 1-byte MemBudget bars full-precision caching, so
	// hybrid4 replicates.
	mixed := costmodel.Costs{Tv: 2e-8, Te: 1e-8, Tc: 8e-8}
	repWins := costmodel.Costs{Tv: 1e-12, Te: 1e-13, Tc: 1e6}
	type row struct {
		mode      Mode
		model     nn.ModelKind
		costs     costmodel.Costs
		memBudget int64
		// path names the master–mirror forward configuration ("" is the
		// assembled one every row above the path rows runs); deep adds a third
		// layer and dropout.
		path string
		deep bool
	}
	var rows []row
	for _, name := range ModeNames() {
		rows = append(rows, row{mode: Mode(name), model: nn.GCN, costs: mixed})
	}
	rows = append(rows,
		row{mode: DepTP, model: nn.GAT, costs: mixed}, // whole blocks over the master–mirror exchange (GCN runs the slice dataflow)
		row{mode: Hybrid4, model: nn.GCN, costs: repWins, memBudget: 1})
	// The forward configurations production runs: every benchmark workload is
	// chunk-pipelined (R+L+P), the ROC baseline broadcasts whole blocks.
	paths := map[string]func(*Options){
		"":          func(*Options) {},
		"rlp":       func(o *Options) { o.Ring, o.LockFree, o.Overlap = true, true, true },
		"broadcast": func(o *Options) { o.Broadcast = true },
	}
	for _, path := range []string{"rlp", "broadcast"} {
		for _, mode := range []Mode{DepComm, Hybrid} {
			for _, model := range []nn.ModelKind{nn.GCN, nn.GAT} {
				rows = append(rows, row{mode: mode, model: model, costs: mixed, path: path})
			}
		}
	}
	for _, path := range []string{"", "rlp", "broadcast"} {
		rows = append(rows, row{mode: Hybrid, model: nn.GCN, costs: mixed, path: path, deep: true})
	}
	for i, r := range rows {
		name := fmt.Sprintf("%d-%s-%s", i, r.mode, r.model)
		if r.path != "" {
			name += "-" + r.path
		}
		if r.deep {
			name += "-deep"
		}
		t.Run(name, func(t *testing.T) {
			opts := Options{Workers: 4, Mode: r.mode, Model: r.model, Seed: 11}
			paths[r.path](&opts)
			if r.deep {
				opts.Layers, opts.Dropout = 3, 0.3
			}
			a := runPinned(t, opts, r.costs, r.memBudget, 5)
			b := runPinned(t, opts, r.costs, r.memBudget, 5)
			for i := range a.losses {
				if a.losses[i] != b.losses[i] {
					t.Fatalf("epoch %d: losses diverge bitwise: %.17g vs %.17g", i+1, a.losses[i], b.losses[i])
				}
			}
			if a.bytes != b.bytes || a.msgs != b.msgs || a.plan != b.plan || a.params != b.params {
				t.Fatalf("runs differ: %d B / %d msgs / plan %s / params %s vs %d B / %d msgs / plan %s / params %s",
					a.bytes, a.msgs, a.plan, a.params, b.bytes, b.msgs, b.plan, b.params)
			}
			// A replicated top layer holds the whole boundary closure, so the
			// run is communication-free whatever policy name asked for it, and
			// the engine reports so.
			if a.topRep != (a.repFactor > 1) {
				t.Fatalf("top layer replicated = %v but ReplicationFactor() = %g", a.topRep, a.repFactor)
			}
			t.Logf("pin: loss5=%.17g bytes/epoch=%d msgs/epoch=%d plan=%s params=%s shape=%s",
				a.losses[4], a.bytes, a.msgs, a.plan, a.params, a.shape)
		})
	}
}

// TestKillAndResumeMatchesUninterrupted trains 6 epochs straight through,
// then separately trains 3 epochs, "kills" the engine, rebuilds it from the
// snapshot, and trains 3 more. The resumed curve must match the
// uninterrupted one within 1e-5 (bit-exact in-process, since the probed cost
// model is memoised; the tolerance absorbs cross-process plan differences).
// The ParamServer row resumes a run whose non-server workers hold no Adam
// moments: the snapshot's one copy is the server's.
func TestKillAndResumeMatchesUninterrupted(t *testing.T) {
	const k, total = 3, 6
	ds := testDataset(t, 300, 6, 3)
	for _, opts := range []Options{
		{Workers: 4, Mode: Hybrid, Seed: 5},
		{Workers: 4, Mode: Hybrid, Seed: 5, ParamServer: true},
	} {
		t.Run(fmt.Sprintf("paramserver=%v", opts.ParamServer), func(t *testing.T) {
			full, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]float64, 0, total)
			for _, st := range full.Train(total) {
				want = append(want, st.Loss)
			}
			full.Close()

			store, err := ckpt.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			optsCkpt := opts
			optsCkpt.Ckpt = &ckpt.Saver{Store: store, Every: 1}
			first, err := NewEngine(ds, optsCkpt)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range first.Train(k) {
				if st.CkptErr != nil {
					t.Fatalf("epoch %d checkpoint: %v", st.Epoch, st.CkptErr)
				}
				if st.Loss != want[i] {
					t.Fatalf("pre-kill epoch %d loss %.17g, uninterrupted %.17g", i+1, st.Loss, want[i])
				}
			}
			first.Close() // the "crash"

			snap, err := store.LoadLatest()
			if err != nil {
				t.Fatal(err)
			}
			if snap == nil {
				t.Fatal("no snapshot on disk after 3 checkpointed epochs")
			}
			if snap.Epoch != k {
				t.Fatalf("latest snapshot is epoch %d, want %d", snap.Epoch, k)
			}

			second, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer second.Close()
			if err := second.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if got := len(second.History()); got != k {
				t.Fatalf("restored history has %d epochs, want %d", got, k)
			}
			for i, st := range second.Train(total - k) {
				if st.Epoch != k+i+1 {
					t.Fatalf("resumed epoch numbered %d, want %d", st.Epoch, k+i+1)
				}
				if diff := math.Abs(st.Loss - want[k+i]); diff > 1e-5 {
					t.Fatalf("resumed epoch %d loss %.17g, uninterrupted %.17g (diff %g)",
						st.Epoch, st.Loss, want[k+i], diff)
				}
			}
			if !second.ReplicasInSync() {
				t.Fatal("replicas diverged after resume")
			}
		})
	}
}

// TestResumeSkipsCorruptNewestSnapshot: with the newest of three snapshots
// bit-rotted, resuming restores the one before it, and training on from
// there matches the uninterrupted run.
func TestResumeSkipsCorruptNewestSnapshot(t *testing.T) {
	const total = 5
	opts := Options{Workers: 3, Mode: Hybrid, Seed: 5}
	ds := testDataset(t, 300, 6, 3)
	full, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Train(total)
	full.Close()

	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	optsCkpt := opts
	optsCkpt.Ckpt = &ckpt.Saver{Store: store, Every: 1}
	first, err := NewEngine(ds, optsCkpt)
	if err != nil {
		t.Fatal(err)
	}
	first.Train(3)
	first.Close()
	newest := filepath.Join(dir, "snap-00000003.nsck")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := store.LoadLatest()
	if err != nil {
		t.Fatalf("a corrupt newest snapshot failed the resume: %v", err)
	}
	if snap.Epoch != 2 {
		t.Fatalf("resumed from epoch %d, want the intact epoch 2", snap.Epoch)
	}
	second, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if err := second.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i, st := range second.Train(total - 2) {
		if w := want[2+i]; st.Epoch != w.Epoch || math.Abs(st.Loss-w.Loss) > 1e-5 {
			t.Fatalf("resumed epoch %d loss %.17g, uninterrupted epoch %d %.17g", st.Epoch, st.Loss, w.Epoch, w.Loss)
		}
	}
}

// TestRestoreRejectsMismatchedFingerprint: a snapshot from a different
// cluster shape or partition must be refused, not loaded misaligned.
func TestRestoreRejectsMismatchedFingerprint(t *testing.T) {
	ds := testDataset(t, 300, 6, 3)
	a, err := NewEngine(ds, Options{Workers: 4, Mode: Hybrid, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.RunEpoch()
	snap := a.Snapshot()

	for name, build := range map[string]func() (*Engine, error){
		"2 workers": func() (*Engine, error) { return NewEngine(ds, Options{Workers: 2, Mode: Hybrid, Seed: 5}) },
		"4 workers, fennel": func() (*Engine, error) {
			return newTuned(ds, Options{Workers: 4, Mode: Hybrid, Seed: 5}, partitionedBy(t, partition.Fennel))
		},
	} {
		b, err := build()
		if err != nil {
			t.Fatal(err)
		}
		err = b.Restore(snap)
		b.Close()
		if err == nil {
			t.Fatalf("%s: restore of a 4-worker chunk snapshot succeeded", name)
		}
	}
}

// TestRejectedSnapshotLeavesEngineUntouched: a snapshot whose last
// parameter carries a misshaped moment vector is refused before any worker
// takes its parameters, moments or RNG position, so the engine goes on
// exactly as a twin that never saw it.
func TestRejectedSnapshotLeavesEngineUntouched(t *testing.T) {
	ds := testDataset(t, 300, 6, 3)
	opts := Options{Workers: 3, Mode: Hybrid, Seed: 5}
	build := func() *Engine {
		e, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	donor, victim, twin := build(), build(), build()
	donor.Train(2)
	snap := donor.Snapshot()
	last := &snap.Params[len(snap.Params)-1]
	last.V = last.V[:len(last.V)-1]
	victim.RunEpoch()
	twin.RunEpoch()

	var before [][]float32
	for _, p := range victim.Params() {
		before = append(before, append([]float32(nil), p.Value.Data()...))
	}
	if err := victim.Restore(snap); err == nil {
		t.Fatal("restore of a snapshot with a misshaped moment vector succeeded")
	}
	for i, p := range victim.Params() {
		for k, v := range p.Value.Data() {
			if math.Float32bits(v) != math.Float32bits(before[i][k]) {
				t.Fatalf("worker 0 param %s[%d] moved from %v to %v", p.Name, k, before[i][k], v)
			}
		}
	}
	if !victim.ReplicasInSync() {
		t.Fatal("replicas out of sync after a rejected restore")
	}
	got, want := victim.RunEpoch(), twin.RunEpoch()
	if got.Epoch != want.Epoch || math.Float64bits(got.Loss) != math.Float64bits(want.Loss) {
		t.Fatalf("after the rejected restore: epoch %d loss %.17g, twin epoch %d loss %.17g",
			got.Epoch, got.Loss, want.Epoch, want.Loss)
	}
}

// TestFaultInjectedRunCompletes is the acceptance run: 5% drop with jittered
// delay on every kind. Retransmission must carry the run to completion, the
// fault counters must show real injected faults, and — because faults touch
// timing, never content — the loss curve must match the clean run exactly.
func TestFaultInjectedRunCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injected training is slow under -short")
	}
	spec, err := comm.ParseFaultSpec("drop=0.05,delay=100us,jitter=500us,dup=0.02,seed=9,timeout=500us")
	if err != nil {
		t.Fatal(err)
	}
	clean := trainLosses(t, Options{Workers: 4, Mode: Hybrid, Seed: 7}, 3)
	before := metricValues(t, "ns_comm_fault_dropped_total", "ns_comm_fault_retransmissions_total")
	faulted := trainLosses(t, Options{Workers: 4, Mode: Hybrid, Seed: 7, Profile: comm.NetworkProfile{Fault: spec}}, 3)
	after := metricValues(t, "ns_comm_fault_dropped_total", "ns_comm_fault_retransmissions_total")
	for i := range clean {
		if clean[i] != faulted[i] {
			t.Fatalf("epoch %d: faulted loss %.17g differs from clean %.17g — faults must never alter content",
				i+1, faulted[i], clean[i])
		}
	}
	for name, b := range before {
		if after[name] <= b {
			t.Errorf("metric %s did not increase over the faulted run (%g -> %g)", name, b, after[name])
		}
	}
}

// metricValues renders the default registry the way /metrics would and sums
// every sample of the named families.
func metricValues(t *testing.T, names ...string) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		metric := fields[0]
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			metric = metric[:i]
		}
		for _, name := range names {
			if metric == name {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					t.Fatalf("metric line %q: %v", line, err)
				}
				out[name] += v
			}
		}
	}
	return out
}
