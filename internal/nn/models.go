package nn

import (
	"fmt"

	"neutronstar/internal/tensor"
)

// ModelKind names one of the paper's three evaluated GNN architectures.
type ModelKind string

const (
	// GCN is the graph convolutional network of Kipf & Welling.
	GCN ModelKind = "gcn"
	// GIN is the graph isomorphism network of Xu et al.
	GIN ModelKind = "gin"
	// GAT is the graph attention network of Velickovic et al.
	GAT ModelKind = "gat"
	// SAGE is a GraphSAGE-style model with max-pooling aggregation — an
	// extension beyond the paper's three evaluated models, exercising the
	// max aggregator of GatherByDst.
	SAGE ModelKind = "sage"
)

// ModelKinds lists all supported architectures.
func ModelKinds() []ModelKind { return []ModelKind{GCN, GIN, GAT, SAGE} }

// SliceSeparable reports whether kind's neighbor aggregation is column-wise
// separable: each output column of the edge stage depends only on the same
// input column. GCN (normalised copy + sum) and GIN (raw sum) qualify — they
// are exactly the SumDecomposable layers whose EdgeStage never mixes columns
// — so a tensor-parallel engine can aggregate an F/N-wide feature shard
// independently per worker, and any engine can run such a model's
// parameter-free EdgeStage and Combine over static features once. GAT
// (softmax over learned per-edge scores) and SAGE (wPool transform before
// pooling) mix columns and need the full width; a tensor-parallel engine must
// fall back to assembling full-width rows.
func SliceSeparable(kind ModelKind) bool {
	switch kind {
	case GCN, GIN:
		return true
	}
	return false
}

// NewModel builds an L-layer model of the given kind with the dimension
// chain dims = [featureDim, hidden..., numClasses]; len(dims)-1 layers are
// created, all but the last with activations, as in the paper's 2-layer
// configurations. Weight initialisation draws from seed deterministically.
func NewModel(kind ModelKind, dims []int, dropout float32, seed uint64) (*Model, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: need at least [in, out] dims, got %v", dims)
	}
	rng := tensor.NewRNG(seed)
	m := &Model{Name: string(kind)}
	for i := 0; i+1 < len(dims); i++ {
		act := i+2 < len(dims) // no activation on the classifier layer
		var l Layer
		switch kind {
		case GCN:
			l = NewGCNLayer(dims[i], dims[i+1], act, dropout, rng)
		case GIN:
			l = NewGINLayer(dims[i], dims[i+1], act, dropout, rng)
		case GAT:
			l = NewGATLayer(dims[i], dims[i+1], act, dropout, rng)
		case SAGE:
			l = NewSAGELayer(dims[i], dims[i+1], act, dropout, rng)
		default:
			return nil, fmt.Errorf("nn: unknown model kind %q", kind)
		}
		m.Layers = append(m.Layers, l)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MustNewModel is NewModel that panics on error.
func MustNewModel(kind ModelKind, dims []int, dropout float32, seed uint64) *Model {
	m, err := NewModel(kind, dims, dropout, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Clone returns an inference copy of m: the same architecture, m's parameter
// values copied, dropout off. Stepping m afterwards leaves the copy as it was,
// so a server can keep answering from it while training goes on.
func (m *Model) Clone() *Model {
	c := MustNewModel(ModelKind(m.Name), m.Dims(), 0, 0)
	src := m.Params()
	for i, p := range c.Params() {
		p.Value.CopyFrom(src[i].Value)
	}
	return c
}
