package testkit

import (
	"math"
	"testing"

	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/partition"
)

// TestDepRepQuantizedReplicaBound trains DepRep with quantized replica
// features against the exact DepRep run. Quantization perturbs only the
// replica copies of boundary features (owners keep full precision, and
// partition.RequantizeErrorBound bounds each element's storage error), so the
// end-to-end trajectory may drift but must stay within a loose bound that
// scales with the format's precision: ~1e-2 relative for fp16 (2⁻¹¹ storage
// error amplified through 3 epochs of training), ~5e-2 for int8 (absmax/254
// per element). These bounds are empirical for the pinned workload — they
// document the magnitude of the deviation the knob buys, not a universal
// guarantee. With quantization off, DepRep stays inside the 1e-5 oracle
// (TestCrossPolicyEquivalence); this test covers the lossy formats.
func TestDepRepQuantizedReplicaBound(t *testing.T) {
	ds := SmallDataset(32, 4, 11)
	const epochs = 3
	base := engine.Options{
		Model: nn.GCN, Seed: 3,
		Workers: 4, Mode: engine.DepRep,
	}
	exact, err := trainEngine(ds, "deprep-exact", base, epochs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		quant    partition.RepQuant
		lossTol  float64
		paramTol float64
	}{
		{partition.RepQuantFP16, 1e-2, 1e-2},
		{partition.RepQuantInt8, 5e-2, 5e-2},
	} {
		opts := base
		opts.RepQuant = tc.quant
		run, err := trainEngine(ds, "deprep-"+string(tc.quant), opts, epochs)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareRuns(*exact, *run, tc.lossTol, tc.paramTol); err != nil {
			t.Fatalf("%s exceeded its documented bound: %v", tc.quant, err)
		}
		// The run must also be deterministic: quantization is a pure function
		// of the stored features, so repeating it reproduces the trajectory
		// bit for bit.
		again, err := trainEngine(ds, "deprep-"+string(tc.quant)+"-again", opts, epochs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range run.Losses {
			if run.Losses[i] != again.Losses[i] {
				t.Fatalf("%s: nondeterministic loss at epoch %d: %g vs %g",
					tc.quant, i+1, run.Losses[i], again.Losses[i])
			}
		}
	}
	// int8 is lossy enough that the hook's effect must be visible — a
	// bit-identical trajectory would mean replica quantization never ran.
	opts := base
	opts.RepQuant = partition.RepQuantInt8
	run, err := trainEngine(ds, "deprep-int8-probe", opts, epochs)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := range run.Losses {
		if d := math.Abs(run.Losses[i] - exact.Losses[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff == 0 {
		t.Fatal("int8 replica quantization left the trajectory bit-identical; the requantization hook did not run")
	}
}
