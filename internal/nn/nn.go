// Package nn builds GNN layers and optimisers on top of the autograd tape.
// A layer receives, through ForwardCtx, exactly the decoupled inputs of the
// paper's programming model (§4.1): the source representations of its
// in-edges (the result of GetFromDepNbr, plus the index ScatterToEdge would
// gather them by), the destination vertices' own rows, and the CSC structure
// needed for destination-grouped aggregation (GatherByDst). What the layer
// does with them — EdgeForward and VertexForward — is model-specific: GCN,
// GIN and GAT are provided, matching the paper's evaluation.
package nn

import (
	"fmt"

	"neutronstar/internal/autograd"
	"neutronstar/internal/tensor"
)

// Param is one trainable weight matrix, replicated on every worker. Grad
// accumulates partial gradients from the local tape; the engine all-reduces
// Grad across workers before the optimiser step so replicas stay identical.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	bound *autograd.Variable
}

// NewParam wraps an initialised tensor as a parameter.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows(), value.Cols())}
}

// Bind registers the parameter as a differentiable leaf on the tape for the
// current pass and remembers the variable so CollectGrad can harvest it.
// Binding twice on the same tape (a layer invoked on several destination
// blocks) returns the existing leaf so gradients accumulate in one place.
func (p *Param) Bind(t *autograd.Tape) *autograd.Variable {
	if p.bound != nil && p.bound.Tape() == t {
		return p.bound
	}
	p.bound = t.Leaf(p.Value, true, p.Name)
	return p.bound
}

// CollectGrad adds the bound variable's gradient into p.Grad and unbinds.
// It is a no-op if the parameter was never bound or received no gradient.
func (p *Param) CollectGrad() {
	if p.bound != nil && p.bound.Grad != nil {
		tensor.AddInto(p.Grad, p.Grad, p.bound.Grad)
	}
	p.bound = nil
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// NumElements returns the parameter size.
func (p *Param) NumElements() int { return p.Value.Len() }

// ForwardCtx carries the engine-assembled inputs for one block of
// destination vertices in one layer.
//
// A block's edge sources come in one of two forms. The engines pass Src and
// SrcRow — the row universe they already hold plus the edge→row index — and
// sum-type layers (GCN, GIN, GAT) aggregate straight through the index with
// autograd's fused Aggregate kernel, so no per-edge tensor is built. A caller
// that has already gathered one row per edge passes EdgeSrc alone; that is
// the same kernel with the identity index, with bit-identical outputs.
// Layers whose edge stage is not a weighted sum of source rows (SAGE's
// per-edge MLP) gather one row per edge on demand.
type ForwardCtx struct {
	Tape *autograd.Tape
	// Src is the row universe edge sources are read from: previous-layer
	// representations (already pre-transformed if the layer implements
	// PreTransformer). SrcRow[e] is the row of Src that edge e reads, in
	// destination-grouped (CSC) order. When Src is set it takes precedence
	// over EdgeSrc.
	Src    *autograd.Variable
	SrcRow []int32
	// EdgeSrc holds one row per local in-edge, in destination-grouped (CSC)
	// order: Src gathered by SrcRow. Read only when Src is nil.
	EdgeSrc *autograd.Variable
	// Self holds the destination vertices' own previous-layer rows
	// (pre-transformed likewise).
	Self *autograd.Variable
	// Offsets (len NumDst+1) delimits each destination's edge group within
	// the edge order.
	Offsets []int32
	// EdgeDst maps each edge to its destination's local index (0..NumDst).
	EdgeDst []int32
	// EdgeNorm is the per-edge GCN normalisation coefficient; SelfNorm the
	// per-destination self-loop coefficient. Nil when the model ignores them.
	EdgeNorm []float32
	SelfNorm []float32
	Training bool
	RNG      *tensor.RNG
}

// source returns the rows edge sources are read from and the edge→row index
// into them; a nil index means edge e reads row e (the EdgeSrc entry).
func (c *ForwardCtx) source() (*autograd.Variable, []int32) {
	if c.Src != nil {
		return c.Src, c.SrcRow
	}
	return c.EdgeSrc, nil
}

// edgeRows returns one source row per edge, gathering Src by SrcRow on
// demand — for layers whose edge stage is not a weighted sum of source rows.
func (c *ForwardCtx) edgeRows() *autograd.Variable {
	if c.Src != nil {
		return c.Tape.Gather(c.Src, c.SrcRow)
	}
	return c.EdgeSrc
}

// NumDst returns the number of destination vertices in the block.
func (c *ForwardCtx) NumDst() int { return len(c.Offsets) - 1 }

// Layer is one GNN propagation layer.
type Layer interface {
	InDim() int
	OutDim() int
	Params() []*Param
	// Forward computes the block's new representations (NumDst x OutDim).
	Forward(ctx *ForwardCtx) *autograd.Variable
	// Rectified reports whether Forward's last operation is a ReLU: every
	// output entry it zeroes is +0, and its backward writes 0 there whatever
	// gradient arrives — what lets a mirror post nothing for those entries.
	Rectified() bool
}

// PreTransformer is implemented by layers that apply a vertex-level
// transformation before edge scattering (e.g. GAT's z = W·h). The engine
// applies it once per row universe, avoiding per-edge re-computation, and
// the communicated representation stays the raw h as in the paper.
type PreTransformer interface {
	PreTransform(t *autograd.Tape, h *autograd.Variable, training bool, rng *tensor.RNG) *autograd.Variable
}

// Model is a stack of layers ending in a classifier dimension.
type Model struct {
	Name   string
	Layers []Layer
}

// Params returns all trainable parameters in layer order.
func (m *Model) Params() []*Param {
	var out []*Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumLayers returns the number of propagation layers (the paper's L).
func (m *Model) NumLayers() int { return len(m.Layers) }

// Dims returns the representation dimension entering each layer plus the
// final output dimension: [d^(0), d^(1), ..., d^(L)].
func (m *Model) Dims() []int {
	dims := make([]int, 0, len(m.Layers)+1)
	if len(m.Layers) == 0 {
		return dims
	}
	dims = append(dims, m.Layers[0].InDim())
	for _, l := range m.Layers {
		dims = append(dims, l.OutDim())
	}
	return dims
}

// Validate checks layer dimension chaining.
func (m *Model) Validate() error {
	for i := 1; i < len(m.Layers); i++ {
		if m.Layers[i-1].OutDim() != m.Layers[i].InDim() {
			return fmt.Errorf("nn: layer %d out %d != layer %d in %d",
				i-1, m.Layers[i-1].OutDim(), i, m.Layers[i].InDim())
		}
	}
	return nil
}

// SumDecomposable is implemented by layers whose neighbor aggregation is a
// plain (possibly per-edge-weighted) sum and whose first parameter comes after
// it: Forward is Transform(Combine(EdgeStage(sources), self)). For such layers
// the engine can aggregate incrementally, one received source-worker chunk at
// a time — the chunk-based computation of the paper's §4.3 (Fig. 8): the
// EdgeStage of chunk k runs while chunk k+1 is still on the wire, and Combine
// and Transform run once after all partials are summed. And because EdgeStage
// and Combine read no parameter and draw no random number, a layer whose
// input never changes — layer 1, over features — has a Combine output that
// never changes either: the engine computes it once and runs only Transform
// every epoch. GAT is not sum-decomposable (its per-destination softmax needs
// every score first, and its weights come before the edge stage), matching
// the paper's observation that edge-softmax models limit chunk pipelining.
type SumDecomposable interface {
	// EdgeStage computes the partial aggregation of one edge chunk: one row
	// per destination (numDst rows), summed over the chunk's edges. Edge e
	// reads row srcRow[e] of src (row e when srcRow is nil, i.e. src already
	// holds one row per edge) — the Src/SrcRow contract of ForwardCtx.
	EdgeStage(t *autograd.Tape, src *autograd.Variable, srcRow []int32, edgeNorm []float32,
		edgeDst []int32, numDst int) *autograd.Variable
	// Combine joins the total aggregation with the destinations' own rows:
	// the layer's input to its first parameter. It must not read a parameter
	// or an RNG.
	Combine(t *autograd.Tape, agg, self *autograd.Variable, selfNorm []float32) *autograd.Variable
	// Transform applies the layer's NN transform — dropout first, then every
	// parameter — to Combine's output.
	Transform(t *autograd.Tape, combined *autograd.Variable, training bool, rng *tensor.RNG) *autograd.Variable
}

// EdgeStage implements SumDecomposable for GCN: normalised sum.
func (l *GCNLayer) EdgeStage(t *autograd.Tape, src *autograd.Variable, srcRow []int32,
	edgeNorm []float32, edgeDst []int32, numDst int) *autograd.Variable {
	return t.Aggregate(src, srcRow, edgeNorm, edgeDst, numDst)
}

// Combine implements SumDecomposable for GCN: Σ ĉ_uv·h_u + ĉ_vv·h_v.
func (l *GCNLayer) Combine(t *autograd.Tape, agg, self *autograd.Variable, selfNorm []float32) *autograd.Variable {
	if selfNorm != nil {
		self = t.MulColVec(self, selfNorm)
	}
	return t.Add(agg, self)
}

// Transform implements SumDecomposable for GCN: act(W·combined + b).
func (l *GCNLayer) Transform(t *autograd.Tape, combined *autograd.Variable, training bool, rng *tensor.RNG) *autograd.Variable {
	combined = t.Dropout(combined, l.dropout, rng, training)
	return t.Linear(combined, l.w.Bind(t), l.b.Bind(t), l.act)
}

// EdgeStage implements SumDecomposable for GIN: raw sum.
func (l *GINLayer) EdgeStage(t *autograd.Tape, src *autograd.Variable, srcRow []int32,
	edgeNorm []float32, edgeDst []int32, numDst int) *autograd.Variable {
	return t.Aggregate(src, srcRow, nil, edgeDst, numDst)
}

// Combine implements SumDecomposable for GIN: Σ h_u + (1+ε)·h_v.
func (l *GINLayer) Combine(t *autograd.Tape, agg, self *autograd.Variable, selfNorm []float32) *autograd.Variable {
	return t.Add(agg, t.Scale(self, 1+l.epsilon))
}

// Transform implements SumDecomposable for GIN: the two-linear MLP.
func (l *GINLayer) Transform(t *autograd.Tape, combined *autograd.Variable, training bool, rng *tensor.RNG) *autograd.Variable {
	combined = t.Dropout(combined, l.dropout, rng, training)
	h := t.Linear(combined, l.w1.Bind(t), l.b1.Bind(t), true)
	return t.Linear(h, l.w2.Bind(t), l.b2.Bind(t), l.act)
}
