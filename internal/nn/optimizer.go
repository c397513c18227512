package nn

import (
	"math"
	"slices"

	"neutronstar/internal/tensor"
)

// Adam implements the Adam optimiser (Kingma & Ba) with bias correction. It
// is deterministic: replicas running the same step on the same gradients
// produce bit-identical parameters.
type Adam struct {
	LR           float32
	Beta1, Beta2 float32
	Eps          float32

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam returns an Adam optimiser with standard defaults.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Tensor),
		v: make(map[*Param]*tensor.Tensor),
	}
}

// Step applies one Adam update to every parameter from its accumulated
// gradient; the caller then typically zeroes the grads.
func (o *Adam) Step(params []*Param) {
	o.t++
	c1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.t)))
	c2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.t)))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.Value.Rows(), p.Value.Cols())
			o.m[p] = m
			o.v[p] = tensor.New(p.Value.Rows(), p.Value.Cols())
		}
		v := o.v[p]
		md, vd, gd, pd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
		for i, g := range gd {
			md[i] = float32(o.Beta1*md[i]) + float32((1-o.Beta1)*g)
			vd[i] = float32(o.Beta2*vd[i]) + float32((1-o.Beta2)*g*g)
			mHat := md[i] / c1
			vHat := vd[i] / c2
			pd[i] -= o.LR * mHat / (float32(math.Sqrt(float64(vHat))) + o.Eps)
		}
	}
}

// ZeroGrads clears every parameter's gradient accumulator.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// GradOf picks a parameter's gradient for Flatten and Unflatten.
func GradOf(p *Param) *tensor.Tensor { return p.Grad }

// ValueOf picks a parameter's value for Flatten and Unflatten.
func ValueOf(p *Param) *tensor.Tensor { return p.Value }

// Flatten lays the tensor field picks from each parameter end to end in one
// new buffer, in params' order: the layout every gradient all-reduce and
// parameter-server exchange sends.
func Flatten(params []*Param, field func(*Param) *tensor.Tensor) []float32 {
	parts := make([][]float32, len(params))
	for i, p := range params {
		parts[i] = field(p).Data()
	}
	return slices.Concat(parts...)
}

// Unflatten copies buf, laid out as Flatten lays it, back into the tensor
// field picks from each parameter.
func Unflatten(buf []float32, params []*Param, field func(*Param) *tensor.Tensor) {
	for _, p := range params {
		buf = buf[copy(field(p).Data(), buf):]
	}
}
