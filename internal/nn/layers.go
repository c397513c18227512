package nn

import (
	"fmt"

	"neutronstar/internal/autograd"
	"neutronstar/internal/tensor"
)

// GCNLayer implements Kipf & Welling's graph convolution with the
// renormalisation trick: h_v' = act( W · Σ_{u∈N(v)∪{v}} ĉ_uv · h_u + b ).
// EdgeForward multiplies each incoming message by its normalisation
// coefficient; GatherByDst sums; VertexForward applies the dense layer.
// The layer is SumDecomposable (nn.go): Forward is Transform(Combine(EdgeStage)).
type GCNLayer struct {
	in, out int
	w       *Param
	b       *Param
	act     bool
	dropout float32
}

// NewGCNLayer builds a GCN layer. act enables the ReLU non-linearity
// (disabled on the final layer, whose output feeds log-softmax).
func NewGCNLayer(in, out int, act bool, dropout float32, rng *tensor.RNG) *GCNLayer {
	return &GCNLayer{
		in: in, out: out, act: act, dropout: dropout,
		w: NewParam(fmt.Sprintf("gcn_w_%dx%d", in, out), tensor.XavierUniform(in, out, rng)),
		b: NewParam(fmt.Sprintf("gcn_b_%d", out), tensor.New(1, out)),
	}
}

// InDim returns the input dimension.
func (l *GCNLayer) InDim() int { return l.in }

// OutDim returns the output dimension.
func (l *GCNLayer) OutDim() int { return l.out }

// Rectified reports whether the layer ends in its ReLU.
func (l *GCNLayer) Rectified() bool { return l.act }

// Params returns the layer's weight and bias.
func (l *GCNLayer) Params() []*Param { return []*Param{l.w, l.b} }

// Forward runs the edge stage (normalised sum over in-edges), joins the self
// term and applies dense + activation, for one destination block.
func (l *GCNLayer) Forward(ctx *ForwardCtx) *autograd.Variable {
	src, srcRow := ctx.source()
	agg := l.EdgeStage(ctx.Tape, src, srcRow, ctx.EdgeNorm, ctx.EdgeDst, ctx.NumDst())
	return l.Transform(ctx.Tape, l.Combine(ctx.Tape, agg, ctx.Self, ctx.SelfNorm), ctx.Training, ctx.RNG)
}

// GINLayer implements the Graph Isomorphism Network layer:
// h_v' = MLP( (1+ε)·h_v + Σ_{u∈N(v)} h_u ), with a two-linear MLP.
type GINLayer struct {
	in, out int
	w1, b1  *Param
	w2, b2  *Param
	epsilon float32
	act     bool
	dropout float32
}

// NewGINLayer builds a GIN layer with fixed ε.
func NewGINLayer(in, out int, act bool, dropout float32, rng *tensor.RNG) *GINLayer {
	return &GINLayer{
		in: in, out: out, act: act, dropout: dropout, epsilon: 0,
		w1: NewParam(fmt.Sprintf("gin_w1_%dx%d", in, out), tensor.XavierUniform(in, out, rng)),
		b1: NewParam(fmt.Sprintf("gin_b1_%d", out), tensor.New(1, out)),
		w2: NewParam(fmt.Sprintf("gin_w2_%dx%d", out, out), tensor.XavierUniform(out, out, rng)),
		b2: NewParam(fmt.Sprintf("gin_b2_%d", out), tensor.New(1, out)),
	}
}

// InDim returns the input dimension.
func (l *GINLayer) InDim() int { return l.in }

// OutDim returns the output dimension.
func (l *GINLayer) OutDim() int { return l.out }

// Rectified reports whether the layer ends in its ReLU.
func (l *GINLayer) Rectified() bool { return l.act }

// Params returns the MLP parameters.
func (l *GINLayer) Params() []*Param { return []*Param{l.w1, l.b1, l.w2, l.b2} }

// Forward sums raw neighbor messages (edge stage), adds the (1+ε)-scaled self
// term and applies the two-layer MLP.
func (l *GINLayer) Forward(ctx *ForwardCtx) *autograd.Variable {
	src, srcRow := ctx.source()
	agg := l.EdgeStage(ctx.Tape, src, srcRow, nil, ctx.EdgeDst, ctx.NumDst())
	return l.Transform(ctx.Tape, l.Combine(ctx.Tape, agg, ctx.Self, nil), ctx.Training, ctx.RNG)
}

// GATLayer implements single-head graph attention:
// z = W·h (vertex-level pre-transform), score_uv = LeakyReLU(a_s·z_u+a_d·z_v),
// α = softmax over each v's in-edges, h_v' = act(Σ α_uv z_u + b).
// The per-destination softmax is the edge-associated computation ROC lacks
// (which is why the paper reports ROC cannot run GAT).
type GATLayer struct {
	in, out int
	w       *Param
	aSrc    *Param
	aDst    *Param
	b       *Param
	slope   float32
	act     bool
	dropout float32
}

// NewGATLayer builds a single-head GAT layer with LeakyReLU slope 0.2.
func NewGATLayer(in, out int, act bool, dropout float32, rng *tensor.RNG) *GATLayer {
	return &GATLayer{
		in: in, out: out, act: act, dropout: dropout, slope: 0.2,
		w:    NewParam(fmt.Sprintf("gat_w_%dx%d", in, out), tensor.XavierUniform(in, out, rng)),
		aSrc: NewParam(fmt.Sprintf("gat_asrc_%d", out), tensor.XavierUniform(1, out, rng)),
		aDst: NewParam(fmt.Sprintf("gat_adst_%d", out), tensor.XavierUniform(1, out, rng)),
		b:    NewParam(fmt.Sprintf("gat_b_%d", out), tensor.New(1, out)),
	}
}

// InDim returns the input dimension.
func (l *GATLayer) InDim() int { return l.in }

// OutDim returns the output dimension.
func (l *GATLayer) OutDim() int { return l.out }

// Rectified reports whether the layer ends in its ReLU.
func (l *GATLayer) Rectified() bool { return l.act }

// Params returns the attention parameters.
func (l *GATLayer) Params() []*Param { return []*Param{l.w, l.aSrc, l.aDst, l.b} }

// PreTransform computes z = W·h once per vertex row universe, so edges carry
// the (usually narrower) transformed representation.
func (l *GATLayer) PreTransform(t *autograd.Tape, h *autograd.Variable, training bool, rng *tensor.RNG) *autograd.Variable {
	h = t.Dropout(h, l.dropout, rng, training)
	return t.MatMul(h, l.w.Bind(t))
}

// Forward computes attention scores per edge, normalises them per
// destination with a segment softmax, and aggregates weighted messages.
func (l *GATLayer) Forward(ctx *ForwardCtx) *autograd.Variable {
	t := ctx.Tape
	// Source rows and Self are already z = W·h via PreTransform. a_s·z is
	// computed once per source row and a_d·z once per destination, and
	// EdgeSoftmax reads both score columns through the edge index, so α is
	// the only per-edge tensor — the same bits as dotting gathered rows.
	z, srcRow := ctx.source()
	srcScore := t.RowDot(z, l.aSrc.Bind(t))        // rows of z x 1
	dstScore := t.RowDot(ctx.Self, l.aDst.Bind(t)) // NumDst x 1
	alpha := t.EdgeSoftmax(srcScore, srcRow, dstScore, ctx.Offsets, l.slope)
	agg := t.AggregateWeighted(z, srcRow, alpha, ctx.EdgeDst, ctx.NumDst())
	// Self residual: destinations keep their own transformed representation
	// (GAT's residual connection); vertices with no in-edges degrade to a
	// plain dense layer instead of losing their signal entirely.
	pre := t.Add(agg, ctx.Self)
	if l.act {
		return t.AddBiasReLU(pre, l.b.Bind(t))
	}
	return t.AddBias(pre, l.b.Bind(t))
}

// SAGELayer implements a GraphSAGE-style layer with max-pooling
// aggregation: h_v' = act( W_self·h_v + W_nbr·max_{u∈N(v)} σ(W_pool·h_u) ).
// It exercises the max variant of GatherByDst that the paper lists among
// the supported commutative aggregators (§4.1), alongside GCN/GIN's sums.
type SAGELayer struct {
	in, out int
	wSelf   *Param
	wNbr    *Param
	wPool   *Param
	b       *Param
	act     bool
	dropout float32
}

// NewSAGELayer builds a max-pool GraphSAGE layer.
func NewSAGELayer(in, out int, act bool, dropout float32, rng *tensor.RNG) *SAGELayer {
	return &SAGELayer{
		in: in, out: out, act: act, dropout: dropout,
		wSelf: NewParam(fmt.Sprintf("sage_wself_%dx%d", in, out), tensor.XavierUniform(in, out, rng)),
		wNbr:  NewParam(fmt.Sprintf("sage_wnbr_%dx%d", in, out), tensor.XavierUniform(in, out, rng)),
		wPool: NewParam(fmt.Sprintf("sage_wpool_%dx%d", in, in), tensor.XavierUniform(in, in, rng)),
		b:     NewParam(fmt.Sprintf("sage_b_%d", out), tensor.New(1, out)),
	}
}

// InDim returns the input dimension.
func (l *SAGELayer) InDim() int { return l.in }

// OutDim returns the output dimension.
func (l *SAGELayer) OutDim() int { return l.out }

// Rectified reports whether the layer ends in its ReLU.
func (l *SAGELayer) Rectified() bool { return l.act }

// Params returns the layer parameters.
func (l *SAGELayer) Params() []*Param { return []*Param{l.wSelf, l.wNbr, l.wPool, l.b} }

// Forward pools each destination's transformed neighbor messages with an
// element-wise max and combines with the self path.
func (l *SAGELayer) Forward(ctx *ForwardCtx) *autograd.Variable {
	t := ctx.Tape
	msgs := t.ReLU(t.MatMul(ctx.edgeRows(), l.wPool.Bind(t)))
	pooled := t.ScatterMaxRows(msgs, ctx.EdgeDst, ctx.NumDst())
	self := t.Dropout(ctx.Self, l.dropout, ctx.RNG, ctx.Training)
	z := t.Add(t.MatMul(self, l.wSelf.Bind(t)), t.MatMul(pooled, l.wNbr.Bind(t)))
	if l.act {
		return t.AddBiasReLU(z, l.b.Bind(t))
	}
	return t.AddBias(z, l.b.Bind(t))
}
