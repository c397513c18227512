package engine

import "neutronstar/internal/hybrid"

// Charge prices worker w's Decision with the engine's own planner: what the
// candidate argmin charged the plan this engine runs.
func (e *Engine) Charge(w int) hybrid.Charge {
	return e.planner(e.costs).Charge(w, e.decs[w])
}

// PlanRows returns worker w's per-layer execution-plan counts: the dependency
// rows layer l fetches every epoch (index l-1), the rows it holds since
// construction instead, and the destinations of the cached block it
// recomputes.
func (e *Engine) PlanRows(w int) (recvRows, heldRows, cachedDsts []int64) {
	for _, lp := range e.plans[w].layers {
		held := 0
		for _, verts := range lp.held {
			held += len(verts)
		}
		recvRows = append(recvRows, lp.work.recvRows)
		heldRows = append(heldRows, int64(held))
		cachedDsts = append(cachedDsts, int64(lp.cached.numDst()))
	}
	return recvRows, heldRows, cachedDsts
}

// PlanEdges returns worker w's per-layer edge counts (index l-1): the edges
// the layer's work report says every epoch walks, the edges of its owned and
// cached blocks, and the cached block's share of those — what Planner.Charge
// prices Te on at level l.
func (e *Engine) PlanEdges(w int) (walked, planned, cached []int64) {
	for _, lp := range e.plans[w].layers {
		walked = append(walked, lp.work.edgeOps)
		planned = append(planned, int64(len(lp.owned.srcRow)+len(lp.cached.srcRow)))
		cached = append(cached, int64(len(lp.cached.srcRow)))
	}
	return walked, planned, cached
}

// Layer1CommSet returns the size of worker w's layer-1 communicated set: the
// dependencies its Decision communicates at layer 1 and its closure does not
// hold anyway (none under a tensor-parallel layer 1, which has no per-vertex
// exchange).
func (e *Engine) Layer1CommSet(w int) int64 {
	dec := e.decs[w]
	if dec.TPAt(1) {
		return 0
	}
	held := hybrid.ClosureOf(e.ds.Graph, e.part, w, dec)
	var n int64
	for _, u := range dec.C[0] {
		if !held.Holds(u, 0) {
			n++
		}
	}
	return n
}
