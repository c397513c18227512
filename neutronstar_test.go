package neutronstar

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"neutronstar/internal/engine"
	"neutronstar/internal/obs"
)

func TestLoadDatasetAndTrain(t *testing.T) {
	ds, err := LoadDataset("cora")
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumVertices() != 2700 || ds.Name() != "cora" {
		t.Fatalf("cora = %d vertices, name %q", ds.NumVertices(), ds.Name())
	}
	s, err := NewSession(ds, Config{Workers: 2, Engine: EngineHybrid, Model: ModelGCN, Seed: 1, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Train(15)
	if len(res) != 15 {
		t.Fatalf("results = %d", len(res))
	}
	if res[14].Loss >= res[0].Loss {
		t.Fatalf("loss %v -> %v", res[0].Loss, res[14].Loss)
	}
	if res[0].Millis <= 0 || res[0].Epoch != 1 {
		t.Fatalf("bad epoch result %+v", res[0])
	}
	if acc := s.Accuracy(SplitTest); acc < 0.3 {
		t.Fatalf("test accuracy %v unexpectedly low", acc)
	}
}

func TestLoadDatasetUnknown(t *testing.T) {
	if _, err := LoadDataset("nope"); err == nil {
		t.Fatal("expected error")
	}
	if len(DatasetNames()) != 10 {
		t.Fatalf("names = %v", DatasetNames())
	}
}

func TestCustomDataset(t *testing.T) {
	// Two triangles, one per class, homophilous features.
	edges := [][2]int{
		{0, 1}, {1, 2}, {2, 0},
		{3, 4}, {4, 5}, {5, 3},
		{0, 3}, // one cross edge
	}
	features := make([][]float32, 6)
	labels := make([]int, 6)
	for v := range features {
		c := v / 3
		labels[v] = c
		features[v] = []float32{float32(2*c - 1), float32(v)}
	}
	ds, err := NewDataset(6, edges, features, labels, 2, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumVertices() != 6 || ds.NumEdges() != 7 {
		t.Fatalf("custom ds %d/%d", ds.NumVertices(), ds.NumEdges())
	}
	s, err := NewSession(ds, Config{Workers: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := s.TrainEpoch()
	if r.Epoch != 1 {
		t.Fatal("epoch not run")
	}
}

func TestCustomDatasetValidation(t *testing.T) {
	if _, err := NewDataset(2, nil, [][]float32{{1}}, []int{0, 0}, 1, 4, 1); err == nil {
		t.Fatal("expected feature-count error")
	}
	if _, err := NewDataset(1, nil, [][]float32{{1}}, []int{5}, 2, 4, 1); err == nil {
		t.Fatal("expected label-range error")
	}
	if _, err := NewDataset(2, [][2]int{{0, 9}}, [][]float32{{1}, {1}}, []int{0, 0}, 1, 4, 1); err == nil {
		t.Fatal("expected edge-range error")
	}
	if _, err := NewDataset(0, nil, nil, nil, 1, 4, 1); err == nil {
		t.Fatal("expected empty-dataset error")
	}
}

func TestConfigValidation(t *testing.T) {
	ds, _ := LoadDataset("cora")
	for _, cfg := range []Config{
		{Engine: "warp"},
		{Model: "transformer"},
		{Network: "wifi"},
		{LR: math.NaN()},
		{LR: math.Inf(1)},
		{LR: -1},
		{LR: 1e300}, // +Inf once it is a float32
	} {
		if _, err := NewSession(ds, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestPlannerInputsReachPlanner: MemBudgetBytes and RepBudgetBytes are
// planner inputs, set on the planner the session's plan is decided by,
// unchanged: 0 is unlimited on both sides.
func TestPlannerInputsReachPlanner(t *testing.T) {
	ds, err := LoadDataset("cora")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Workers: 3, Engine: EngineHybrid4},
		{Workers: 3, Engine: EngineHybrid4, MemBudgetBytes: 4096, RepBudgetBytes: 8192},
	} {
		opts, err := toEngineOptions(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planFor(ds.inner, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if p := plan.Planner; p.MemBudget != cfg.MemBudgetBytes || p.RepBudget != cfg.RepBudgetBytes {
			t.Errorf("%+v: planner MemBudget %d RepBudget %d, want %d and %d",
				cfg, p.MemBudget, p.RepBudget, cfg.MemBudgetBytes, cfg.RepBudgetBytes)
		}
	}
}

// TestPolicyRegistry: the engine's policy table is the one registry of policy
// names. Every row must be accepted by the facade and the engine itself (an
// engine that plans and runs an epoch also proves the row's planner mode has
// its row in the planner's table), and a name that is not a
// row must be rejected by each with an error listing the valid set. A policy
// added in one place only fails the build or this test.
func TestPolicyRegistry(t *testing.T) {
	ds, err := NewDataset(6, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {0, 3}},
		[][]float32{{-1, 0}, {-1, 1}, {-1, 2}, {1, 3}, {1, 4}, {1, 5}}, []int{0, 0, 0, 1, 1, 1}, 2, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	valid := strings.Join(engine.ModeNames(), ", ")
	check := func(name, layer string, err error) {
		t.Helper()
		switch known := name != "warp"; {
		case known && err != nil:
			t.Errorf("%s rejects policy %q: %v", layer, name, err)
		case !known && err == nil:
			t.Errorf("%s accepts unknown policy %q", layer, name)
		case !known && !strings.Contains(err.Error(), valid):
			t.Errorf("%s: error for %q does not list the valid set %q: %v", layer, name, valid, err)
		}
	}
	for _, name := range append(engine.ModeNames(), "warp") {
		s, err := NewSession(ds, Config{Workers: 2, Engine: EngineKind(name), Seed: 2})
		check(name, "facade", err)
		if err == nil {
			s.TrainEpoch()
			s.Close()
		}
		e, err := engine.NewEngine(ds.inner, engine.Options{Workers: 2, Mode: engine.Mode(name), Seed: 2})
		check(name, "engine.NewEngine", err)
		if err == nil {
			e.RunEpoch()
			e.Close()
		}
	}
}

func TestEnginesAgreeViaFacade(t *testing.T) {
	ds, _ := LoadDataset("citeseer")
	losses := map[EngineKind]float64{}
	for _, ek := range []EngineKind{EngineDepCache, EngineDepComm, EngineHybrid} {
		s, err := NewSession(ds, Config{Workers: 3, Engine: ek, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		losses[ek] = s.Train(2)[1].Loss
		s.Close()
	}
	for ek, l := range losses {
		diff := l - losses[EngineHybrid]
		if diff < -1e-3 || diff > 1e-3 {
			t.Fatalf("%s loss %v deviates from hybrid %v", ek, l, losses[EngineHybrid])
		}
	}
}

func TestDependencySummaryAndCacheBytes(t *testing.T) {
	ds, _ := LoadDataset("cora")
	s, err := NewSession(ds, Config{Workers: 4, Engine: EngineDepCache, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cached, communicated := s.DependencySummary()
	if len(cached) != 2 {
		t.Fatalf("layers = %d", len(cached))
	}
	for l := range communicated {
		if communicated[l] != 0 {
			t.Fatal("DepCache communicated dependencies")
		}
	}
	if cached[0] == 0 || s.CacheBytes() == 0 {
		t.Fatal("DepCache cached nothing")
	}
	if s.PreprocessMillis() < 0 {
		t.Fatal("negative preprocess time")
	}
}

func TestMetricsEnabled(t *testing.T) {
	ds, _ := LoadDataset("cora")
	s, err := NewSession(ds, Config{Workers: 2, Metrics: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.TrainEpoch()
	if s.Metrics() == nil || len(s.Metrics().Snapshot()) == 0 || len(s.Metrics().Deliveries()) == 0 {
		t.Fatal("metrics not collected")
	}
	s2, _ := NewSession(ds, Config{Workers: 2, Seed: 4})
	defer s2.Close()
	if s2.Metrics() != nil {
		t.Fatal("metrics collected when disabled")
	}
}

// TestStatusWithoutMetrics: /status is a view of the always-on flight
// recorder — traffic and per-worker busy shares are there without a
// collector, and the session keeps a barrier-aligned metric history.
func TestStatusWithoutMetrics(t *testing.T) {
	ds, _ := LoadDataset("cora")
	s, err := NewSession(ds, Config{Workers: 2, Engine: EngineDepComm, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Status(); st.BytesSent != 0 || st.ComputeBusy != nil {
		t.Fatalf("status before training: %+v", st)
	}
	eps := s.Train(3)
	st := s.Status()
	if st.Epoch != 3 || st.Loss != eps[2].Loss || st.BytesSent <= 0 || st.BytesReceived <= 0 {
		t.Fatalf("status without Config.Metrics: %+v, last epoch %+v", st, eps[2])
	}
	for w := 0; w < 2; w++ {
		compute, comm := st.ComputeBusy[w], st.CommBusy[w]
		if compute <= 0 || comm <= 0 || compute+comm > 1 {
			t.Fatalf("worker %d: compute %v + comm %v must be positive shares of the wall", w, compute, comm)
		}
	}
	if n := s.MetricHistory().Len(); n != 3 {
		t.Fatalf("metric history holds %d samples after 3 epochs, want one per barrier", n)
	}
}

// TestSessionWatchdogJudgesEveryEpoch: the session's watchdog judges each
// epoch through the history's epoch-barrier sample.
func TestSessionWatchdogJudgesEveryEpoch(t *testing.T) {
	ds, _ := LoadDataset("cora")
	s, err := NewSession(ds, Config{Workers: 2, WatchRules: "stall=1h"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Train(3)
	if rep := s.HealthWatch(); rep.LastEpoch != 3 || !rep.Healthy || rep.Rules != "stall=1h0m0s" {
		t.Fatalf("health after 3 epochs: %+v", rep)
	}
}

func TestSessionCheckpointRoundTrip(t *testing.T) {
	ds, _ := LoadDataset("cora")
	s, err := NewSession(ds, Config{Workers: 2, Model: ModelSAGE, Seed: 6, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	s.Train(10)
	accTrained := s.Accuracy(SplitTest)
	var buf bytes.Buffer
	if err := s.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// A fresh session with a different seed starts worse; loading the
	// checkpoint restores the trained accuracy exactly.
	s2, err := NewSession(ds, Config{Workers: 3, Model: ModelSAGE, Seed: 999})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if acc := s2.Accuracy(SplitTest); acc != accTrained {
		t.Fatalf("restored accuracy %v != trained %v", acc, accTrained)
	}
	// Training must continue cleanly after a load (replicas stayed in sync).
	r := s2.TrainEpoch()
	if r.Loss <= 0 {
		t.Fatal("no loss after restore")
	}
}

// TestDefaultRegistryHoldsOnlyReadFamilies trains, checkpoints and resumes a
// session, then asserts the process-wide registry holds only families with a
// reader other than the scrape (DESIGN §9): every other fact lives in a typed
// store — the flight recorder, Engine.History, Store.Entries, Pool.Stats.
func TestDefaultRegistryHoldsOnlyReadFamilies(t *testing.T) {
	ds, _ := LoadDataset("cora")
	s, err := NewSession(ds, Config{Workers: 2, Seed: 1, CkptDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if ep := s.TrainEpoch(); ep.CkptErr != nil {
		t.Fatal(ep.CkptErr)
	}
	if ok, err := s.Resume(); !ok || err != nil {
		t.Fatalf("Resume = %v, %v", ok, err)
	}
	sent := false
	for _, ser := range obs.Default().Gather() {
		switch n := ser.Name; {
		case n == "ns_comm_message_bytes":
			sent = ser.Count > 0
		case strings.HasPrefix(n, "ns_comm_fault_"), strings.HasPrefix(n, "ns_serve_"):
		default:
			t.Errorf("family %s has no reader but the scrape", n)
		}
	}
	if !sent {
		t.Fatal("ns_comm_message_bytes observed no message")
	}
}

func TestSAGEViaFacade(t *testing.T) {
	ds, _ := LoadDataset("citeseer")
	s, err := NewSession(ds, Config{Workers: 2, Model: ModelSAGE, Seed: 8, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Train(10)
	if res[9].Loss >= res[0].Loss {
		t.Fatalf("SAGE did not learn: %v -> %v", res[0].Loss, res[9].Loss)
	}
}

func TestDeepModelViaFacade(t *testing.T) {
	ds, _ := LoadDataset("cora")
	s, err := NewSession(ds, Config{Workers: 2, Layers: 3, Seed: 31, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := s.Train(10)
	if res[9].Loss >= res[0].Loss {
		t.Fatalf("3-layer model did not learn: %v -> %v", res[0].Loss, res[9].Loss)
	}
	cached, _ := s.DependencySummary()
	if len(cached) != 3 {
		t.Fatalf("dependency summary has %d layers, want 3", len(cached))
	}
}

func TestDatasetDirRoundTripViaFacade(t *testing.T) {
	ds, _ := LoadDataset("citeseer")
	dir := t.TempDir()
	if err := SaveDataset(ds, dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDatasetDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != ds.NumVertices() || got.NumEdges() != ds.NumEdges() {
		t.Fatal("round trip changed the dataset")
	}
	// The loaded dataset must be trainable.
	s, err := NewSession(got, Config{Workers: 2, Seed: 61, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if r := s.Train(4); r[3].Loss >= r[0].Loss {
		t.Fatalf("loaded dataset did not train: %v -> %v", r[0].Loss, r[3].Loss)
	}
}
