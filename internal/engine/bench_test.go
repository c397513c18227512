package engine

import (
	"testing"

	"neutronstar/internal/dataset"
	"neutronstar/internal/nn"
)

// Plan construction on a fixed mid-size workload: the one per-job cost no
// experiment times (cmd/nsbench runs the paper's figures, benchmark/ the
// end-to-end workloads).

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	return dataset.Load(dataset.Spec{
		Name: "bench", Vertices: 4000, AvgDegree: 12, FeatureDim: 32,
		NumClasses: 8, HiddenDim: 16, Gen: dataset.GenRMAT, Seed: 99,
	})
}

// Plan construction cost (the per-job preprocessing beyond Algorithm 4).
func BenchmarkBuildPlans(b *testing.B) {
	ds := benchDataset(b)
	plan, err := PlanFor(ds, Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := buildPlans(plan.Planner, plan.Decisions, false); err != nil {
			b.Fatal(err)
		}
	}
}
