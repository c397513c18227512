package distdgl

import (
	"math"
	"slices"
	"testing"
	"time"

	"neutronstar/internal/dataset"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

func testDS(t testing.TB) *dataset.Dataset {
	t.Helper()
	return dataset.Load(dataset.Spec{
		Name: "dgl", Vertices: 400, AvgDegree: 8, FeatureDim: 12,
		NumClasses: 4, HiddenDim: 8, Gen: dataset.GenSBM, Homophily: 0.85, Seed: 55,
	})
}

func TestTrainerLearns(t *testing.T) {
	ds := testDS(t)
	tr, err := New(ds, Options{Workers: 3, BatchSize: 32, Seed: 1, LR: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	before := tr.Evaluate(ds.TestMask)
	var first, last float64
	for e := 0; e < 12; e++ {
		st := tr.RunEpoch()
		if e == 0 {
			first = st.Loss
		}
		last = st.Loss
		if st.Batches <= 0 {
			t.Fatal("no batches")
		}
	}
	after := tr.Evaluate(ds.TestMask)
	if last >= first {
		t.Fatalf("loss did not improve: %v -> %v", first, last)
	}
	if after <= before {
		t.Fatalf("accuracy did not improve: %v -> %v", before, after)
	}
}

func TestReplicasStayInSync(t *testing.T) {
	ds := testDS(t)
	tr, err := New(ds, Options{Workers: 4, BatchSize: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.RunEpoch()
	ref := tr.ws[0].model.Params()
	for _, w := range tr.ws[1:] {
		ps := w.model.Params()
		for k := range ref {
			if !ref[k].Value.Equal(ps[k].Value) {
				t.Fatalf("worker %d param %d diverged", w.id, k)
			}
		}
	}
}

func TestSamplingTrafficRecorded(t *testing.T) {
	ds := testDS(t)
	tracer := obs.NewTracer()
	tr, err := New(ds, Options{Workers: 3, BatchSize: 32, Seed: 3, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	tr.RunEpoch()
	if len(tracer.Deliveries()) == 0 {
		t.Fatal("no feature-fetch traffic recorded")
	}
	var sampling time.Duration
	for _, sp := range tracer.Snapshot() {
		if sp.Class == obs.ClassSample {
			sampling += sp.Duration()
		}
	}
	if sampling == 0 {
		t.Fatal("no sampling time recorded")
	}
}

func TestRejectsBadFanouts(t *testing.T) {
	ds := testDS(t)
	if _, err := New(ds, Options{Workers: 2, Fanouts: []int{5, 5, 5}}); err == nil {
		t.Fatal("expected error for 3 fanouts on 2-layer model")
	}
}

func TestDefaultsApplied(t *testing.T) {
	ds := testDS(t)
	tr, err := New(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.opts.BatchSize != 64 || len(tr.opts.Fanouts) != 2 || tr.opts.Workers != 1 {
		t.Fatalf("defaults wrong: %+v", tr.opts)
	}
	st := tr.RunEpoch()
	if st.Loss <= 0 {
		t.Fatal("no loss computed")
	}
}

// TestSameSeedBitIdentical: trainers with one seed report bit-identical
// epoch losses, whatever order their workers finish in. Several trainers run
// against the first, since one pair's workers may finish in the same order
// by chance.
func TestSameSeedBitIdentical(t *testing.T) {
	ds, err := dataset.LoadByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	losses := func() []uint64 {
		tr, err := New(ds, Options{Workers: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		var bits []uint64
		for e := 0; e < 3; e++ {
			bits = append(bits, math.Float64bits(tr.RunEpoch().Loss))
		}
		return bits
	}
	want := losses()
	for run := 1; run < 8; run++ {
		if got := losses(); !slices.Equal(got, want) {
			t.Fatalf("run %d: same-seed epoch losses %x, first run %x", run, got, want)
		}
	}
}

// TestLossesPinned holds the sampling baseline's 3-epoch losses at three
// workers to golden bits, for a model that reads the GCN coefficients and one
// that pre-transforms its rows: how a sampled block is normalised and run may
// change, what it computes may not.
func TestLossesPinned(t *testing.T) {
	ds, err := dataset.LoadByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[nn.ModelKind][]uint64{
		nn.GCN: {0x3fe034d2b0940795, 0x3fca6127ea795ceb, 0x3fcee26183d64810},
		nn.GAT: {0x3ff9f46cd4518a6d, 0x3fd66bda376a314d, 0x3fe35d4d44ad462a},
	}
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT} {
		tr, err := New(ds, Options{Workers: 3, Model: kind, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for e := 0; e < 3; e++ {
			bits = append(bits, math.Float64bits(tr.RunEpoch().Loss))
		}
		tr.Close()
		if !slices.Equal(bits, golden[kind]) {
			t.Errorf("%s: epoch loss bits %#x, want %#x", kind, bits, golden[kind])
		}
	}
}
