package engine

import (
	"bytes"
	"testing"

	"neutronstar/internal/nn"
)

// TestSaveLoadModelRoundTripAllKinds trains one epoch per architecture,
// round-trips the parameters through SaveModel/LoadModel into a second engine
// built with a different seed, worker count and mode, and asserts the two
// engines' full-graph forward outputs are bit-identical — the contract the
// serving handoff (nstrain -save-model → nsserve -model) depends on.
func TestSaveLoadModelRoundTripAllKinds(t *testing.T) {
	ds := testDataset(t, 120, 5, 64)
	for _, kind := range nn.ModelKinds() {
		t.Run(string(kind), func(t *testing.T) {
			e1, err := NewEngine(ds, Options{Workers: 2, Mode: Hybrid, Model: kind, Seed: 9, LR: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			defer e1.Close()
			e1.RunEpoch() // move parameters off their init values

			var buf bytes.Buffer
			if err := e1.SaveModel(&buf); err != nil {
				t.Fatal(err)
			}

			e2, err := NewEngine(ds, Options{Workers: 3, Mode: DepComm, Model: kind, Seed: 123, LR: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			v0 := e2.ParamVersion()
			if err := e2.LoadModel(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
			if e2.ParamVersion() == v0 {
				t.Fatal("LoadModel did not advance the parameter version")
			}

			ref1 := ReferenceForward(ds.Graph, e1.CloneModel(), ds.Features)
			ref2 := ReferenceForward(ds.Graph, e2.CloneModel(), ds.Features)
			if !ref1.Equal(ref2) {
				t.Fatalf("%s: forward outputs differ after save/load round-trip", kind)
			}

			// A checkpoint from a different architecture must be rejected
			// without partial mutation.
			for _, other := range nn.ModelKinds() {
				if other == kind {
					continue
				}
				e3, err := NewEngine(ds, Options{Workers: 2, Mode: Hybrid, Model: other, Seed: 4, LR: 0.05})
				if err != nil {
					t.Fatal(err)
				}
				if err := e3.LoadModel(bytes.NewReader(buf.Bytes())); err == nil {
					t.Fatalf("%s checkpoint loaded into %s engine", kind, other)
				}
				e3.Close()
				break
			}
		})
	}
}

// TestLoadModelRejectsEveryByteFlip flips each byte of a saved model in
// turn: LoadModel must refuse every copy and leave every replica as it was,
// so a bit-rotted model file can never be served.
func TestLoadModelRejectsEveryByteFlip(t *testing.T) {
	ds := testDataset(t, 120, 5, 64)
	for _, kind := range nn.ModelKinds() {
		t.Run(string(kind), func(t *testing.T) {
			src, err := NewEngine(ds, Options{Workers: 2, Mode: Hybrid, Model: kind, Seed: 9, LR: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			src.RunEpoch()
			var buf bytes.Buffer
			if err := src.SaveModel(&buf); err != nil {
				t.Fatal(err)
			}
			dst, err := NewEngine(ds, Options{Workers: 3, Mode: DepComm, Model: kind, Seed: 123, LR: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Close()
			before := dst.CloneModel().Params()
			v0 := dst.ParamVersion()
			clean := buf.Bytes()
			for pos := range clean {
				bad := append([]byte(nil), clean...)
				bad[pos] ^= 0xFF
				if err := dst.LoadModel(bytes.NewReader(bad)); err == nil {
					t.Fatalf("byte %d of %d flipped: LoadModel accepted it", pos, len(clean))
				}
			}
			if dst.ParamVersion() != v0 {
				t.Fatal("a rejected load advanced the parameter version")
			}
			if !dst.ReplicasInSync() {
				t.Fatal("replicas out of sync after rejected loads")
			}
			for i, p := range dst.Params() {
				if !p.Value.Equal(before[i].Value) {
					t.Fatalf("param %s moved under rejected loads", p.Name)
				}
			}
		})
	}
}
