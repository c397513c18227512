package engine

import "neutronstar/internal/hybrid"

// Charge prices worker w's Decision with the engine's own planner: what the
// candidate argmin charged the plan this engine runs.
func (e *Engine) Charge(w int) hybrid.Charge {
	return e.planner(e.costs).Charge(w, e.decs[w])
}

// PlanRows returns worker w's per-layer execution-plan counts: the dependency
// rows layer l fetches every epoch (index l-1) and the destinations of the
// cached block layer l recomputes.
func (e *Engine) PlanRows(w int) (recvRows, cachedDsts []int64) {
	for _, lp := range e.plans[w].layers {
		recvRows = append(recvRows, lp.work.recvRows)
		cachedDsts = append(cachedDsts, int64(lp.cached.numDst()))
	}
	return recvRows, cachedDsts
}
