// Package dataset synthesises the graphs NeutronStar was evaluated on.
//
// The paper's corpus (Table 2) — Google, Pokec, LiveJournal, Reddit, Orkut,
// Wiki-link, Twitter, plus the Cora/Citeseer/Pubmed citation networks — is
// not shippable inside an offline reproduction, so each entry is replaced by
// a deterministic synthetic graph that preserves the properties the paper's
// experiments actually depend on:
//
//   - average in-degree (drives DepCache's redundant-computation volume),
//   - degree skew (drives the replication-factor distribution),
//   - feature / hidden / label dimensions (drive compute-vs-communication
//     ratios), scaled uniformly so single-machine runs stay tractable,
//   - label-correlated structure where the paper measures accuracy
//     (Reddit and the citation graphs use a stochastic block model with
//     homophilous edges and class-centroid features; the rest use RMAT with
//     random features, matching the paper's "randomly generated features").
//
// All generation is seeded; the same Spec always yields the same dataset.
package dataset

import (
	"fmt"

	"neutronstar/internal/graph"
	"neutronstar/internal/tensor"
)

// Generator selects the synthetic graph family for a Spec.
type Generator int

const (
	// GenRMAT produces a power-law directed graph via recursive matrix
	// sampling; features and labels are random (no planted signal).
	GenRMAT Generator = iota
	// GenSBM produces a stochastic block model with homophilous edges and
	// class-centroid features, so GNN training has a learnable signal.
	GenSBM
	// GenLocality produces a power-law graph whose edges are biased toward
	// nearby vertex ids (crawl-order locality), so chunk partitioning keeps
	// most edges within a worker — the property that makes DepCache
	// competitive on graphs like LiveJournal.
	GenLocality
)

// Spec describes one synthetic dataset. PaperVertices/PaperEdges record what
// the original graph looked like, for Table 2 style reporting.
type Spec struct {
	Name       string
	Vertices   int
	AvgDegree  float64
	FeatureDim int
	NumClasses int
	HiddenDim  int
	Gen        Generator
	// Homophily is the probability an SBM edge stays within its class.
	Homophily float64
	// Skew in [0, 1) tunes RMAT degree skew (0.45 ≈ social-network-like).
	Skew float64
	// LocalityScale is the mean id-distance of GenLocality edges, as a
	// fraction of |V| (e.g. 0.01 keeps most edges within 1% of the id
	// space). Zero defaults to 0.02.
	LocalityScale float64
	// SignalStrength scales the class-centroid magnitude of GenSBM features
	// (default 2.0). Lower values make single-vertex features ambiguous, so
	// classification must rely on neighborhood aggregation — which is what
	// separates full-neighbor training from sampled training in Figure 14.
	SignalStrength float64
	Seed           uint64

	PaperVertices int64
	PaperEdges    int64
	PaperFtrDim   int
	PaperHidden   int
}

// Dataset is a loaded (generated) dataset ready for training.
type Dataset struct {
	Spec     Spec
	Graph    *graph.Graph
	Features *tensor.Tensor // Vertices x FeatureDim
	Labels   []int32
	// TrainMask/ValMask/TestMask select the labeled vertex subsets V_L used
	// for the loss, validation and test accuracy respectively.
	TrainMask, ValMask, TestMask []bool
}

// NumVertices returns |V|.
func (d *Dataset) NumVertices() int { return d.Graph.NumVertices() }

// NumEdges returns |E|.
func (d *Dataset) NumEdges() int { return d.Graph.NumEdges() }

// Load generates the dataset for spec. Generation is deterministic in
// spec.Seed (and the structural fields).
func Load(spec Spec) *Dataset {
	if spec.Vertices <= 0 {
		panic(fmt.Sprintf("dataset %q: no vertices", spec.Name))
	}
	rng := tensor.NewRNG(spec.Seed ^ 0xD5A7E)
	var g *graph.Graph
	var labels []int32
	switch spec.Gen {
	case GenSBM:
		g, labels = generateSBM(spec, rng)
	case GenLocality:
		g = generateLocality(spec, rng)
		labels = make([]int32, spec.Vertices)
		for i := range labels {
			labels[i] = int32(rng.Intn(spec.NumClasses))
		}
	default:
		g = generateRMAT(spec, rng)
		labels = make([]int32, spec.Vertices)
		for i := range labels {
			labels[i] = int32(rng.Intn(spec.NumClasses))
		}
	}

	d := &Dataset{Spec: spec, Graph: g, Labels: labels}
	d.Features = synthesizeFeatures(spec, labels, rng)
	d.TrainMask, d.ValMask, d.TestMask = SplitMasks(spec.Vertices, rng)
	return d
}

// synthesizeFeatures builds the V x FeatureDim feature matrix. For SBM
// datasets each class has a random centroid and features are centroid+noise
// (learnable); for RMAT datasets features are pure noise.
func synthesizeFeatures(spec Spec, labels []int32, rng *tensor.RNG) *tensor.Tensor {
	f := tensor.RandNormal(spec.Vertices, spec.FeatureDim, 0, 1, rng)
	if spec.Gen != GenSBM {
		return f
	}
	strength := float32(spec.SignalStrength)
	if strength <= 0 {
		strength = 2.0
	}
	centroids := tensor.RandNormal(spec.NumClasses, spec.FeatureDim, 0, strength, rng)
	for v := 0; v < spec.Vertices; v++ {
		c := centroids.Row(int(labels[v]))
		row := f.Row(v)
		for j := range row {
			row[j] = float32(row[j]*0.8) + c[j]
		}
	}
	return f
}

// SplitMasks draws a 60/20/20 train/val/test split of n vertices from one
// permutation of rng.
func SplitMasks(n int, rng *tensor.RNG) (train, val, test []bool) {
	train = make([]bool, n)
	val = make([]bool, n)
	test = make([]bool, n)
	perm := rng.Perm(n)
	for i, v := range perm {
		switch {
		case i < n*6/10:
			train[v] = true
		case i < n*8/10:
			val[v] = true
		default:
			test[v] = true
		}
	}
	return train, val, test
}

// TrainLabeledCount returns |V_L ∩ train|.
func (d *Dataset) TrainLabeledCount() int {
	n := 0
	for _, m := range d.TrainMask {
		if m {
			n++
		}
	}
	return n
}
