// Package testkit is the differential correctness harness for the
// NeutronStar reproduction. The system's core claim — hybrid dependency
// management changes *where* work happens, never *what* is computed — is not
// something tier-1 unit tests can defend on their own: a regression in a
// backward dual (ScatterBackToEdge / GatherBySrc) or in master–mirror
// synchronisation can leave every structural test green while silently
// corrupting training. testkit closes that gap with three pillars:
//
//   - a finite-difference gradient checker (gradcheck.go, opcheck.go) that
//     perturbs every parameter tensor and every vertex feature and compares
//     the numeric derivative against the autograd tape, both per decoupled
//     op and per whole model;
//   - a cross-policy equivalence oracle (oracle.go) that trains the same
//     seeded dataset through the single-machine reference, a 1-worker
//     engine, N-worker pure-DepCache, N-worker pure-DepComm and the
//     cost-model hybrid, asserting per-epoch losses and final parameters
//     agree — including under fault injection and kill-and-resume;
//   - property-based graph generators with iterative shrinking (propgen.go,
//     shrink.go) that hunt for structural corner cases (skewed degrees,
//     disconnected components, self-loops, multi-edges, zero-degree
//     vertices) and reduce any violation to a minimal counterexample graph.
//
// A fast subset of the harness runs inside tier-1 `go test ./...`; the
// exhaustive sweep is enabled by setting NS_TESTKIT_FULL=1 (the CI
// `correctness` job does) and widens every check: more trials, more model
// kinds, more worker counts, exhaustive element perturbation.
package testkit

import (
	"math"
	"os"
	"testing"

	"neutronstar/internal/dataset"
	"neutronstar/internal/tensor"
)

// fullSweepEnv is the environment switch the CI correctness job sets.
const fullSweepEnv = "NS_TESTKIT_FULL"

// FullSweep reports whether the exhaustive correctness sweep is enabled.
func FullSweep() bool { return os.Getenv(fullSweepEnv) != "" }

// SkipUnlessFull skips t unless the full sweep is enabled. Tests kept out of
// tier-1 for time (not for flakiness) use this gate.
func SkipUnlessFull(t testing.TB) {
	t.Helper()
	if !FullSweep() {
		t.Skipf("full-sweep test; set %s=1 to run", fullSweepEnv)
	}
}

// SmallDataset generates a deterministic SBM dataset sized for differential
// tests: big enough to have remote dependencies under every partitioner,
// small enough that finite differences stay cheap.
func SmallDataset(n int, deg float64, seed uint64) *dataset.Dataset {
	return dataset.Load(dataset.Spec{
		Name: "testkit", Vertices: n, AvgDegree: deg, FeatureDim: 6,
		NumClasses: 3, HiddenDim: 5, Gen: dataset.GenSBM, Homophily: 0.85,
		Seed: seed,
	})
}

// maskedNLL computes the mean negative log-likelihood of logits over the
// masked rows in float64, mirroring Tape.CrossEntropyMasked's loss but with
// a float64 reduction — the numeric side of the gradient checker wants the
// least rounding noise the float32 forward pass allows.
func maskedNLL(logits *tensor.Tensor, labels []int32, mask []bool) float64 {
	logp := tensor.LogSoftmaxRows(logits)
	n := 0
	var loss float64
	for i := 0; i < logp.Rows(); i++ {
		if !mask[i] {
			continue
		}
		n++
		loss -= float64(logp.At(i, int(labels[i])))
	}
	if n == 0 {
		return 0
	}
	return loss / float64(n)
}

// relErr is the harness-wide tolerance metric: the worst absolute deviation
// normalised by the largest gradient magnitude seen, floored at magFloor.
// Normalising by the infinity norm rather than per-element keeps elements
// whose true gradient is ~0 — where central differences are pure rounding
// noise — from dominating the verdict, while still catching any backward
// rule that is wrong at the scale of the real gradients. magFloor is the
// caller's estimate of the smallest gradient magnitude the float32 forward
// pass can resolve to the harness tolerance (see DESIGN.md §11); tensors
// whose entire gradient sits below it compare against the floor instead.
func relErr(maxAbsDiff, maxMag, magFloor float64) float64 {
	return maxAbsDiff / math.Max(maxMag, math.Max(magFloor, 1e-3))
}
