package engine

import (
	"testing"

	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/nn"
)

// Ablation micro-benchmarks for the engine's design choices. The
// repository-level bench_test.go reproduces the paper's figures; these
// isolate single mechanisms on a fixed mid-size workload.

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	return dataset.Load(dataset.Spec{
		Name: "bench", Vertices: 4000, AvgDegree: 12, FeatureDim: 32,
		NumClasses: 8, HiddenDim: 16, Gen: dataset.GenRMAT, Seed: 99,
	})
}

func benchEpochs(b *testing.B, opts Options) {
	b.Helper()
	ds := benchDataset(b)
	e, err := NewEngine(ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	e.RunEpoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunEpoch()
	}
}

func BenchmarkEpochDepCache(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: DepCache, Model: nn.GCN, Seed: 1})
}

func BenchmarkEpochDepComm(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: DepComm, Model: nn.GCN, Seed: 1})
}

func BenchmarkEpochHybrid(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 1})
}

// Ring scheduling ablation under a throttled network, where send-order
// contention is visible.
func BenchmarkEpochNaiveOrder(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: DepComm, Model: nn.GCN, Seed: 1,
		Profile: comm.ProfileECS})
}

func BenchmarkEpochRingOrder(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: DepComm, Model: nn.GCN, Seed: 1,
		Profile: comm.ProfileECS, Ring: true})
}

// Overlap ablation: cached-block compute hiding behind mirror exchange.
func BenchmarkEpochHybridNoOverlap(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 1,
		Profile: comm.ProfileECS, Ring: true, LockFree: true})
}

func BenchmarkEpochHybridOverlap(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 1,
		Profile: comm.ProfileECS, Ring: true, LockFree: true, Overlap: true})
}

// Whole-block (ROC-style) vs source-specific chunk communication.
func BenchmarkEpochChunked(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: DepComm, Model: nn.GCN, Seed: 1,
		Profile: comm.ProfileECS})
}

func BenchmarkEpochBroadcast(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: DepComm, Model: nn.GCN, Seed: 1,
		Profile: comm.ProfileECS, Broadcast: true})
}

// Parameter synchronisation: all-reduce exchange vs parameter server.
func BenchmarkEpochAllReduce(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 1,
		Profile: comm.ProfileECS})
}

func BenchmarkEpochParamServer(b *testing.B) {
	benchEpochs(b, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 1,
		Profile: comm.ProfileECS, ParamServer: true})
}

// Plan construction cost (the per-job preprocessing beyond Algorithm 4).
func BenchmarkBuildPlans(b *testing.B) {
	ds := benchDataset(b)
	plan, err := PlanFor(ds, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := plan.Planner
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildPlans(ds.Graph, p.Part, plan.Decisions, p.Dims, false); err != nil {
			b.Fatal(err)
		}
	}
}
