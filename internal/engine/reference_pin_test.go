package engine

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"neutronstar/internal/dataset"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

// referenceBitsGolden holds, per model kind, fnv-64a hashes of the reference
// pass's bits on one fixed dataset: ReferenceForward's logits, then
// ReferenceBackward's loss, feature gradient and parameter gradients.
var referenceBitsGolden = map[nn.ModelKind]string{
	nn.GCN:  "logits=bfa3a782afce2030 loss=400da23060000000 feat=db25d9bf041f0e60 params=4c871db7389ef547",
	nn.GIN:  "logits=f4cedc5e0b8da2fa loss=4029df2ee0000000 feat=a4752b67209e7e7e params=e300b16dcbe0cd5e",
	nn.GAT:  "logits=2bbe1fb803c5aa57 loss=402331de40000000 feat=21577ac76795a265 params=a89f29f0f425b529",
	nn.SAGE: "logits=fdb085d66bd366ef loss=40133d1fa0000000 feat=c4b9be8514779fb0 params=b4c477a16ab71d13",
}

// TestReferenceBitsPinned holds the single-machine reference — the oracle
// every engine and the sampling baseline are checked against — to the bits it
// had before it shared the layer pass with them: a change to how a block is
// run that moves one float fails here.
func TestReferenceBitsPinned(t *testing.T) {
	ds, err := dataset.LoadByName("cora")
	if err != nil {
		t.Fatal(err)
	}
	hash := func(ts ...*tensor.Tensor) string {
		h := fnv.New64a()
		for _, x := range ts {
			for _, v := range x.Data() {
				fmt.Fprintf(h, "%08x", math.Float32bits(v))
			}
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, kind := range nn.ModelKinds() {
		model := nn.MustNewModel(kind, []int{ds.Spec.FeatureDim, ds.Spec.HiddenDim, ds.Spec.NumClasses}, 0, 1)
		logits := ReferenceForward(ds.Graph, model, ds.Features)
		loss, featGrad := ReferenceBackward(ds.Graph, model, ds.Features, ds.Labels, ds.TrainMask)
		var grads []*tensor.Tensor
		for _, p := range model.Params() {
			grads = append(grads, p.Grad)
		}
		got := fmt.Sprintf("logits=%s loss=%016x feat=%s params=%s",
			hash(logits), math.Float64bits(loss), hash(featGrad), hash(grads...))
		if want := referenceBitsGolden[kind]; got != want {
			t.Errorf("%s: reference bits\n got %s\nwant %s", kind, got, want)
		}
	}
}
