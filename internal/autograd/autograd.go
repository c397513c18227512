// Package autograd implements tape-based reverse-mode automatic
// differentiation over the tensor package. It is the counterpart of the
// "flexible auto differentiation framework" of NeutronStar (§4.1): within a
// worker, each GNN layer is expressed as a chain of differentiable operations
// (NN ops and graph ops), and the backward pass is derived automatically by
// replaying the tape in reverse. Cross-worker dependency management
// (GetFromDepNbr / PostToDepNbr) lives above this package, in the engine:
// the engine feeds remote representations in as leaf variables and reads
// their accumulated gradients out after Backward, exactly mirroring the
// paper's synchronize-compute / compute-synchronize split.
package autograd

import (
	"fmt"

	"neutronstar/internal/tensor"
)

// Variable is a node in the computation graph: a value plus an optional
// gradient accumulator and the closure that propagates gradients to its
// parents.
type Variable struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor // lazily allocated; nil until first accumulation

	tape         *Tape
	requiresGrad bool
	backward     func(grad *tensor.Tensor)
	name         string
}

// Tape returns the tape the variable is recorded on.
func (v *Variable) Tape() *Tape { return v.tape }

// Name returns the debug name assigned at creation (may be empty).
func (v *Variable) Name() string { return v.name }

// gradBuf returns v.Grad, allocating it zeroed on first use.
func (v *Variable) gradBuf() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = v.tape.alloc(v.Value.Rows(), v.Value.Cols())
	}
	return v.Grad
}

// accumulate adds g into v.Grad, allocating it on first use. It is for a
// gradient that is not v's alone — a pass-through that also feeds another
// variable; a temporary the caller made for v goes to adopt.
func (v *Variable) accumulate(g *tensor.Tensor) {
	if v.requiresGrad {
		v.accumulateForce(g)
	}
}

// adopt hands v a gradient temporary the caller allocated for v alone and
// will not touch again: v's first contribution becomes v.Grad as it stands,
// and later ones are added into it. Adding the first into a cleared buffer
// would give the same bits but for a −0, which +0 + (−0) turns into +0.
func (v *Variable) adopt(g *tensor.Tensor) {
	switch {
	case !v.requiresGrad:
	case v.Grad == nil:
		v.Grad = g
	default:
		tensor.AddInto(v.Grad, v.Grad, g)
	}
}

// Tape records operations in execution order so Backward can replay them in
// reverse. A Tape is not safe for concurrent use; each worker builds its own.
type Tape struct {
	nodes []*Variable
	arena *tensor.Arena
}

// NewTape returns an empty tape whose intermediates are heap-allocated.
func NewTape() *Tape { return &Tape{} }

// NewTapeArena returns an empty tape that draws every op output, backward
// temporary and gradient accumulator from the arena. The caller owns the
// arena's lifetime: it must release only after the tape and everything that
// references its tensors (downstream tapes, in-flight messages, uncollected
// gradients) are dead — in the engine, the epoch barrier.
func NewTapeArena(a *tensor.Arena) *Tape { return &Tape{arena: a} }

// alloc returns a zeroed tensor from the tape's arena, or a fresh heap
// tensor when the tape has none (including the nil tape of detached ops).
func (t *Tape) alloc(rows, cols int) *tensor.Tensor {
	if t == nil {
		return tensor.New(rows, cols)
	}
	return t.arena.Get(rows, cols)
}

// allocUnzeroed is alloc for outputs the op overwrites in full before any
// element is read: recycled arena storage is handed out uncleared. Anything
// that accumulates — gradient buffers, scatter targets — takes alloc.
func (t *Tape) allocUnzeroed(rows, cols int) *tensor.Tensor {
	if t == nil {
		return tensor.New(rows, cols)
	}
	return t.arena.GetUnzeroed(rows, cols)
}

// Reset drops all recorded operations, keeping the backing storage for reuse.
func (t *Tape) Reset() { t.nodes = t.nodes[:0] }

// Nodes returns the variables recorded on the tape, in execution order. It
// exists for tests that assert what an op sequence recorded (Name and Value
// shape of each node); callers must not modify the slice.
func (t *Tape) Nodes() []*Variable { return t.nodes }

// Leaf registers value as a leaf variable. If requiresGrad is set, gradients
// accumulate into it during Backward (used for parameters and for remote
// dependency representations whose gradients must be posted back).
func (t *Tape) Leaf(value *tensor.Tensor, requiresGrad bool, name string) *Variable {
	v := &Variable{Value: value, tape: t, requiresGrad: requiresGrad, name: name}
	t.nodes = append(t.nodes, v)
	return v
}

// Constant registers value as a non-differentiable leaf.
func (t *Tape) Constant(value *tensor.Tensor, name string) *Variable {
	return t.Leaf(value, false, name)
}

// record registers an op output whose parents are parents and whose gradient
// rule is back. The output requires grad iff any parent does.
func (t *Tape) record(value *tensor.Tensor, name string, back func(grad *tensor.Tensor), parents ...*Variable) *Variable {
	req := false
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			req = true
			break
		}
	}
	v := &Variable{Value: value, tape: t, requiresGrad: req, name: name}
	if req {
		v.backward = back
	}
	t.nodes = append(t.nodes, v)
	return v
}

// Backward runs reverse-mode differentiation from root. seed is the gradient
// of the loss with respect to root; pass nil for a scalar root to seed with 1.
// Leaves with requiresGrad accumulate into their Grad fields.
//
// Because ops always append their outputs after their inputs, the tape order
// is already a topological order and reverse iteration is a valid schedule.
func (t *Tape) Backward(root *Variable, seed *tensor.Tensor) {
	if root.tape != t {
		panic("autograd: Backward root from a different tape")
	}
	if seed == nil {
		if root.Value.Len() != 1 {
			panic(fmt.Sprintf("autograd: nil seed requires scalar root, got %dx%d",
				root.Value.Rows(), root.Value.Cols()))
		}
		seed = t.alloc(1, 1)
		seed.Set(0, 0, 1)
	}
	if !seed.SameShape(root.Value) {
		panic("autograd: seed shape mismatch with root value")
	}
	root.accumulateForce(seed)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.backward != nil && n.Grad != nil {
			n.backward(n.Grad)
		}
	}
}

// accumulateForce seeds a gradient even on a node that is itself a
// non-requiresGrad leaf (harmless: its backward is nil).
func (v *Variable) accumulateForce(g *tensor.Tensor) {
	acc := v.gradBuf()
	tensor.AddInto(acc, acc, g)
}
