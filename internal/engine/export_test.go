package engine

import "neutronstar/internal/hybrid"

// BuiltPlans is the execution plan buildPlans derives from a Plan's
// Decisions, built without an engine.
type BuiltPlans struct {
	plan  *Plan
	plans []*workerPlan
}

// BuildPlans derives plan's execution plans; sumDecomposable says the model's
// layers are nn.SumDecomposable.
func BuildPlans(plan *Plan, sumDecomposable bool) (*BuiltPlans, error) {
	p := plan.Planner
	plans, err := buildPlans(p.Graph, p.Part, plan.Decisions, p.Dims, sumDecomposable)
	if err != nil {
		return nil, err
	}
	return &BuiltPlans{plan: plan, plans: plans}, nil
}

// PlanRows returns worker w's per-layer execution-plan counts: the dependency
// rows layer l fetches every epoch (index l-1), the rows it holds since
// construction instead, and the destinations of the cached block it
// recomputes.
func (b *BuiltPlans) PlanRows(w int) (recvRows, heldRows, cachedDsts []int64) {
	for _, lp := range b.plans[w].layers {
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
func (b *BuiltPlans) PlanEdges(w int) (walked, planned, cached []int64) {
	for _, lp := range b.plans[w].layers {
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
func (b *BuiltPlans) Layer1CommSet(w int) int64 {
	dec, p := b.plan.Decisions[w], b.plan.Planner
	if dec.TPAt(1) {
		return 0
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
