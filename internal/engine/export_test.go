package engine

import "neutronstar/internal/hybrid"

// BuiltPlans is the execution plan buildPlans derives from a Plan's
// Decisions, built without an engine.
type BuiltPlans struct {
	plan  *Plan
	plans []*workerPlan
}

// BuildPlans derives plan's execution plans.
func BuildPlans(plan *Plan) (*BuiltPlans, error) {
	plans, err := buildPlans(plan.Planner, plan.Decisions, false)
	if err != nil {
		return nil, err
	}
	return &BuiltPlans{plan: plan, plans: plans}, nil
}

// Executed counts worker w's work every epoch per layer (index l-1) from its
// execution plan's structures alone: a master–mirror layer computes its owned
// and cached blocks' destinations, walks their edges, except where bound says
// layer 1's dataflow combined them at construction, and fetches its recv
// lists; a slice layer computes its owned rows, walks its shard of the edges
// and receives the forward collectives' elements.
func (b *BuiltPlans) Executed(w int, bound bool) []hybrid.Work {
	var out []hybrid.Work
	for i, lp := range b.plans[w].layers {
		var wk hybrid.Work
		switch f := lp.flow.(type) {
		case *masterMirror:
			wk.ReplicaRows = int64(lp.cached.numDst())
			wk.Rows = int64(lp.owned.numDst()) + wk.ReplicaRows
			if i > 0 || !bound {
				wk.ReplicaEdges = int64(len(lp.cached.srcRow))
				wk.Edges = int64(len(lp.owned.srcRow)) + wk.ReplicaEdges
			}
			for _, verts := range lp.recv {
				wk.FetchedRows += int64(len(verts))
			}
		case *tpSlice:
			x, nOwned := f.x, int64(len(b.plans[w].owned))
			lo, hi := x.cols(w)
			d := x.ColStart[x.NumWorkers()]
			wk.Rows = nOwned
			wk.Edges = int64(len(f.shared.all.srcRow)) * int64(hi-lo) / int64(max(d, 1))
			// Re-gather: every peer's column slice of the owned rows; above
			// layer 1 the slice-scatter first brings every peer's rows of
			// this worker's slice.
			wk.TPElems = nOwned * int64(d-(hi-lo))
			if i > 0 {
				wk.TPElems += int64(x.BlockStart[x.NumWorkers()]-len(b.plans[w].owned)) * int64(hi-lo)
			}
		}
		out = append(out, wk)
	}
	return out
}

// HeldRows returns, per layer, the rows worker w's plan holds since
// construction instead of fetching them.
func (b *BuiltPlans) HeldRows(w int) []int64 {
	var out []int64
	for _, lp := range b.plans[w].layers {
		var held int64
		for _, verts := range lp.held {
			held += int64(len(verts))
		}
		out = append(out, held)
	}
	return out
}

// Layer1CommSet returns the size of worker w's layer-1 communicated set: the
// dependencies its Decision communicates at layer 1 and its closure does not
// hold anyway. A tensor-parallel layer 1 has no per-vertex exchange: the
// slice dataflow holds no row, and without it the layer holds every peer's
// whole block, |V| − |owned| rows.
func (b *BuiltPlans) Layer1CommSet(w int) int64 {
	dec, p := b.plan.Decisions[w], b.plan.Planner
	switch {
	case dec.TPAt(1) && p.SliceTP:
		return 0
	case dec.TPAt(1):
		return int64(p.Graph.NumVertices() - len(p.Part.Parts[w]))
	}
	held := hybrid.ClosureOf(p.Graph, p.Part, w, dec)
	var n int64
	for _, u := range dec.C[0] {
		if !held.Holds(u, 0) {
			n++
		}
	}
	return n
}

// CacheBytes is Engine.CacheBytes of an engine running these plans.
func (b *BuiltPlans) CacheBytes() int64 {
	var n int64
	for _, p := range b.plans {
		n += p.cacheBytes + p.heldBytes
	}
	return n
}
