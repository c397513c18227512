package nn

import (
	"math"

	"neutronstar/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
// Implementations must be deterministic: replicas running the same step on
// the same gradients must produce bit-identical parameters.
type Optimizer interface {
	// Step applies one update using each parameter's Grad, then the caller
	// typically zeroes the grads.
	Step(params []*Param)
}

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	LR          float32
	WeightDecay float32
}

// Step applies p.Value -= lr * (p.Grad + wd * p.Value) to every parameter.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if o.WeightDecay != 0 {
			tensor.Axpy(p.Grad.Data(), o.WeightDecay, p.Value.Data())
		}
		tensor.Axpy(p.Value.Data(), -o.LR, p.Grad.Data())
	}
}

// Adam implements the Adam optimiser (Kingma & Ba) with bias correction.
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

// Step applies one Adam update to every parameter.
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

// Scheduler adjusts a learning rate over epochs. Schedulers are pure
// functions of the epoch index, so replicas stay in sync without
// coordination.
type Scheduler interface {
	// LR returns the learning rate for the given 0-based epoch.
	LR(epoch int) float32
}

// ConstantLR always returns the same rate.
type ConstantLR float32

// LR implements Scheduler.
func (c ConstantLR) LR(int) float32 { return float32(c) }

// StepLR multiplies the base rate by Gamma every StepSize epochs.
type StepLR struct {
	Base     float32
	StepSize int
	Gamma    float32
}

// LR implements Scheduler.
func (s StepLR) LR(epoch int) float32 {
	if s.StepSize <= 0 {
		return s.Base
	}
	lr := s.Base
	for k := 0; k < epoch/s.StepSize; k++ {
		lr *= s.Gamma
	}
	return lr
}

// CosineLR anneals from Base to Min over Span epochs, then stays at Min.
type CosineLR struct {
	Base, Min float32
	Span      int
}

// LR implements Scheduler.
func (c CosineLR) LR(epoch int) float32 {
	if c.Span <= 0 || epoch >= c.Span {
		return c.Min
	}
	frac := float64(epoch) / float64(c.Span)
	return c.Min + float32((c.Base-c.Min)*float32((1+math.Cos(math.Pi*frac))/2))
}

// SetLR updates an optimiser's learning rate (for use with a Scheduler
// between epochs).
func SetLR(opt Optimizer, lr float32) {
	switch o := opt.(type) {
	case *SGD:
		o.LR = lr
	case *Adam:
		o.LR = lr
	}
}

// ClipGradNorm scales all gradients down so their global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm. Deterministic, so replicas
// clip identically after the all-reduce.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		n := tensor.Norm(p.Grad)
		sq += float64(n * n)
	}
	total := math.Sqrt(sq)
	if maxNorm > 0 && total > maxNorm {
		scale := float32(maxNorm / total)
		for _, p := range params {
			tensor.ScaleInPlace(p.Grad, scale)
		}
	}
	return total
}
