package autograd

import (
	"fmt"
	"math"
	"testing"

	"neutronstar/internal/tensor"
)

// TestLinearMatchesUnfused holds Linear, forward and every gradient, to the
// MatMul + AddBias (AddBiasReLU) chain it fuses, bit for bit: row counts on
// both sides of the GEMM's four-row groups, inputs with planted ±0 (so the
// GEMM's zero-skipping path and the rectifier's ±0 cases run), ±Inf and NaN,
// and every combination of operands that want a gradient.
func TestLinearMatchesUnfused(t *testing.T) {
	rng := tensor.NewRNG(47)
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	plant := func(x *tensor.Tensor, every int) *tensor.Tensor {
		for i := range x.Data() {
			if rng.Intn(every) == 0 {
				x.Data()[i] = specials[rng.Intn(len(specials))]
			}
		}
		return x
	}
	for _, rows := range []int{0, 1, 3, 4, 5, 8, 9, 70} {
		for _, in := range []int{1, 7, 16, 64, 70} {
			for _, out := range []int{1, 16, 33} {
				for mode := 0; mode < 2*2*8; mode++ {
					relu, need := mode&1 == 1, mode>>2
					every := 1000
					if mode&2 == 2 {
						every = 5
					}
					x := plant(tensor.RandNormal(rows, in, 0, 1, rng), every)
					w := plant(tensor.RandNormal(in, out, 0, 1, rng), every)
					b := plant(tensor.RandNormal(1, out, 0, 1, rng), every)
					seed := plant(tensor.RandNormal(rows, out, 0, 1, rng), every)
					what := fmt.Sprintf("%dx%d @ %dx%d relu=%v grads=%03b", rows, in, in, out, relu, need)

					fused, unfused := NewTape(), NewTape()
					fx, fw, fb := fused.Leaf(x, need&1 != 0, "x"), fused.Leaf(w, need&2 != 0, "w"), fused.Leaf(b, need&4 != 0, "b")
					ux, uw, ub := unfused.Leaf(x, need&1 != 0, "x"), unfused.Leaf(w, need&2 != 0, "w"), unfused.Leaf(b, need&4 != 0, "b")
					fy := fused.Linear(fx, fw, fb, relu)
					uy := unfused.AddBias(unfused.MatMul(ux, uw), ub)
					if relu {
						uy = unfused.AddBiasReLU(unfused.MatMul(ux, uw), ub)
					}
					requireSameBits(t, what+" value", fy.Value, uy.Value)
					if need == 0 {
						continue
					}
					fused.Backward(fy, seed)
					unfused.Backward(uy, seed)
					for i, pair := range [][2]*Variable{{fx, ux}, {fw, uw}, {fb, ub}} {
						if need&(1<<i) != 0 {
							requireSameBits(t, fmt.Sprintf("%s grad %d", what, i), pair[0].Grad, pair[1].Grad)
						}
					}
				}
			}
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, v := range got.Data() {
		if w := want.Data()[i]; math.Float32bits(v) != math.Float32bits(w) {
			t.Fatalf("%s: element %d = %v (%#x), unfused %v (%#x)", what, i, v, math.Float32bits(v), w, math.Float32bits(w))
		}
	}
}
