package hybrid

import "neutronstar/internal/costmodel"

// Work is one worker's work at one layer, counted once from its Decision's
// Closure: the counts Eq. 1–3 price, the greedy prices its moves by and the
// execution plan built from the same Decision runs every epoch
// (engine.TestPricedCountsMatchPlan).
type Work struct {
	// Rows and Edges are the destination rows computed and the edges walked
	// every epoch, owned block and replica block together; ReplicaRows and
	// ReplicaEdges are the replica block's share, the redundant compute Eq. 1
	// charges. A bound layer 1 walked its edges once, at construction.
	Rows, Edges, ReplicaRows, ReplicaEdges int64
	// FetchedRows are the dependency rows fetched every epoch. None at layer
	// 1: its rows are features, held from construction.
	FetchedRows int64
	// TPElems is a tensor-parallel layer's slice-exchange volume, in elements
	// (costmodel.TPVolume).
	TPElems int64
}

// Ledger is one worker's work per layer (index l-1) and the replica storage
// it holds.
type Ledger struct {
	Layers []Work
	// Bytes is the replica storage, compressed when any layer is replicated.
	Bytes int64
}

// Charge is a Ledger priced by Costs: the prices the candidate argmin
// compares, beside the counts they were summed over.
type Charge struct {
	// CacheCost / CommCost are the modeled per-epoch seconds of redundant
	// compute and of communication (slice-exchange collectives included).
	CacheCost, CommCost float64
	Ledger
}

// ComputeCost is Eq. 1's price of computing rows d-wide destinations over
// edges edges, (rows·Tv + edges·Te)·d, priced on elements with each product
// rounded before the sum so no architecture fuses it (DESIGN §12). It is the
// one place work meets Tv and Te.
func ComputeCost(c costmodel.Costs, rows, edges int64, d int) float64 {
	return float64(c.Tv*float64(rows*int64(d))) + float64(c.Te*float64(edges*int64(d)))
}

// Charge prices d for worker: the replica compute, fetched rows and
// slice-exchange volume of its Ledger.
func (p *Planner) Charge(worker int, d *Decision) Charge {
	ch := Charge{Ledger: p.Ledger(worker, d)}
	ch.CacheCost = p.replicaCost(ch.Layers)
	for l, w := range ch.Layers {
		ch.CommCost += p.Costs.CommCost(w.FetchedRows*int64(p.Dims[l]) + w.TPElems)
	}
	return ch
}

// replicaCost prices the replica share of layers, layer by layer.
func (p *Planner) replicaCost(layers []Work) float64 {
	var cost float64
	for l, w := range layers {
		cost += ComputeCost(p.Costs, w.ReplicaRows, w.ReplicaEdges, p.Dims[l+1])
	}
	return cost
}

// lift adds to layers the work of holding replica v at levels from+1..to:
// layer k recomputes h^(k)_v, a row and its in-edges, except that level 0 is
// stored, not computed, and a bound layer 1 (SliceTP) walks no edge in an
// epoch.
func (p *Planner) lift(layers []Work, v int32, from, to int) {
	deg := int64(p.Graph.InDegree(v))
	for k := max(from+1, 1); k <= to; k++ {
		layers[k-1].ReplicaRows++
		if k > 1 || !p.SliceTP {
			layers[k-1].ReplicaEdges += deg
		}
	}
}

// Ledger counts worker's work under d from d's Closure: every replica lifted
// once to its level, the owned block at every layer, every communicated
// dependency the closure does not already hold, and the slice exchange of
// tensor-parallel layers (the whole blocks they fetch without SliceTP).
func (p *Planner) Ledger(worker int, d *Decision) Ledger {
	L := p.numLayers()
	held := ClosureOf(p.Graph, p.Part, worker, d)
	led := Ledger{Layers: make([]Work, L)}
	// Replicated plans price their replica rows at RepCompression; plans
	// without replicated layers price at full float32 width (compression 1).
	compression := 1.0
	if d.NumRep() > 0 && p.RepCompression > 1 {
		compression = p.RepCompression
	}
	for _, v := range held.At(0) {
		k := held.Level(v)
		p.lift(led.Layers, v, -1, k)
		led.Bytes += costmodel.RepReplicaBytes(p.Dims, k, p.Graph.InDegree(v), compression)
	}
	owned := p.Part.Parts[worker]
	var ownedEdges int64
	for _, v := range owned {
		ownedEdges += int64(p.Graph.InDegree(v))
	}
	for l := 1; l <= L; l++ {
		w := &led.Layers[l-1]
		w.Rows, w.Edges = int64(len(owned))+w.ReplicaRows, ownedEdges+w.ReplicaEdges
		switch {
		case d.TPAt(l) && p.SliceTP:
			p.tpWork(w, worker, l)
		case d.TPAt(l):
			// Without the slice dataflow a TP layer fetches every peer's whole
			// owned block (held at layer 1, like any layer-1 row).
			if l > 1 {
				w.FetchedRows = int64(p.Graph.NumVertices() - len(owned))
			}
		case l == 1:
			if p.SliceTP {
				w.Edges = 0
			}
		default:
			for _, u := range d.C[l-1] {
				if !held.Holds(u, l-1) {
					w.FetchedRows++
				}
			}
		}
	}
	return led
}

// tpWork counts w, worker's owned rows and edges at layer l, as run by the
// slice dataflow (a TP layer holds no replica): every edge walked at its
// column share of d^(l-1), and costmodel.TPVolume elements moved by the slice
// exchange.
func (p *Planner) tpWork(w *Work, worker, l int) {
	d := p.Dims[l-1]
	lo, hi := costmodel.TPColRange(d, p.Part.NumParts, worker)
	w.TPElems = costmodel.TPVolume(l == 1, p.Graph.NumVertices(), int(w.Rows), d, hi-lo)
	w.Edges = int64(p.Graph.NumEdges()) * int64(hi-lo) / int64(max(d, 1))
}
