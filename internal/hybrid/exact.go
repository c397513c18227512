package hybrid

import (
	"fmt"
	"math"

	"neutronstar/internal/costmodel"
)

// The paper observes (§3) that minimising Eq. 3 is NP-hard — it reduces to
// 0-1 integer linear programming — which is why Algorithm 4 is a greedy
// heuristic. This file provides an exhaustive solver for tiny instances
// (|D| small enough that (2^|D|)^L enumeration is feasible), used in tests
// to measure how far the greedy lands from the true optimum under the same
// cost semantics.

// Charge is what the exact evaluator charges one worker's Decision: the
// prices the candidate argmin compares, and the row counts they were summed
// over — the counts an execution plan built from the same Decision must
// reproduce (engine.TestPricedCountsMatchPlan).
type Charge struct {
	// CacheCost / CommCost are the modeled per-epoch seconds of redundant
	// compute and of communication (slice-exchange collectives included).
	CacheCost, CommCost float64
	// Bytes is the replica storage, compressed when any layer is replicated.
	Bytes int64
	// CommRows[l-1] counts the dependency rows charged CommCost at layer l.
	// CommRows[0] is always zero: layer-1 dependencies are feature rows,
	// priced as fetched once at setup.
	CommRows []int64
	// ReplicaRows[k] counts the replicas held at level k: storage at k = 0,
	// and for k >= 1 the vertex and edge work of layer k, charged once each.
	ReplicaRows []int64
}

// Charge prices d for worker with level-aware replica accounting: the
// Decision's Closure is walked once, every replica w held at level k is
// charged the vertex and edge work of levels 1..k exactly once, and a
// communicated dependency the closure already holds costs nothing.
// Tensor-parallel layers contribute their slice-exchange collective cost
// instead (tpLayerCost).
func (p *Planner) Charge(worker int, d *Decision) Charge {
	L := p.numLayers()
	held := ClosureOf(p.Graph, p.Part, worker, d)
	ch := Charge{CommRows: make([]int64, L), ReplicaRows: make([]int64, L)}

	// Replicated plans store their replica feature/activation rows compressed
	// by the quantization factor; plans without replicated layers price at
	// full float32 width (compression 1), byte-identical to the 3-way model.
	compression := 1.0
	if d.NumRep() > 0 && p.RepCompression > 1 {
		compression = p.RepCompression
	}

	// Iterate replicas in sorted vertex order: map-range order would make the
	// float sum — and with it the candidate argmin on near-ties — depend on
	// the run, and the planner must be deterministic.
	for _, w := range held.At(0) {
		k := held.Level(w)
		deg := float64(p.Graph.InDegree(w))
		ch.ReplicaRows[0]++
		for j := 1; j <= k; j++ {
			ch.CacheCost += float64((p.Costs.Tv + float64(deg*p.Costs.Te)) * float64(p.Dims[j]))
			ch.ReplicaRows[j]++
		}
		ch.Bytes += costmodel.RepReplicaBytes(p.Dims, k, p.Graph.InDegree(w), compression)
	}
	for l := 1; l <= L; l++ {
		if d.TPAt(l) {
			ch.CommCost += p.tpLayerCost(worker, l)
			continue
		}
		if l == 1 {
			continue // features are fetched once at setup, not per epoch
		}
		for _, u := range d.C[l-1] {
			if held.Holds(u, l-1) {
				continue // replicated anyway: nothing to fetch
			}
			ch.CommCost += p.Costs.CommCost(int64(p.Dims[l-1]))
			ch.CommRows[l-1]++
		}
	}
	return ch
}

// tpLayerCost returns the modeled slice-exchange cost of worker `worker`
// running layer l tensor-parallel (Eq. 2's T_c priced on collective volume,
// costmodel.TPVolume).
func (p *Planner) tpLayerCost(worker, l int) float64 {
	n := p.Part.NumParts
	d := p.Dims[l-1]
	lo, hi := costmodel.TPColRange(d, n, worker)
	vol := costmodel.TPVolume(p.SliceTP, l == 1, p.Graph.NumVertices(),
		len(p.Part.Parts[worker]), d, hi-lo)
	return p.Costs.CommCost(vol)
}

// ExactDecision enumerates every per-layer cache/communicate assignment for
// worker and returns the decision Charge prices cheapest subject to the
// memory budget. It refuses instances where the search space exceeds
// maxStates (the problem is NP-hard; this is a test oracle, not a planner).
func (p *Planner) ExactDecision(worker int, maxStates int) (*Decision, error) {
	deps := p.dependencies(worker)
	L := p.numLayers()
	nd := len(deps)
	states := math.Pow(2, float64(nd*L))
	if states > float64(maxStates) {
		return nil, fmt.Errorf("hybrid: exact search needs %.0f states (> %d)", states, maxStates)
	}
	var best *Decision
	bestCost := math.Inf(1)
	total := 1 << (nd * L)
	for code := 0; code < total; code++ {
		d := &Decision{R: make([][]int32, L), C: make([][]int32, L)}
		bits := code
		for l := 0; l < L; l++ {
			for i, u := range deps {
				if bits&(1<<(l*nd+i)) != 0 {
					d.R[l] = append(d.R[l], u)
				} else {
					d.C[l] = append(d.C[l], u)
				}
			}
		}
		ch := p.Charge(worker, d)
		if p.MemBudget > 0 && ch.Bytes > p.MemBudget {
			continue
		}
		if cost := ch.CacheCost + ch.CommCost; cost < bestCost {
			best, bestCost = d, cost
		}
	}
	if best == nil {
		return nil, fmt.Errorf("hybrid: no feasible decision under budget %d", p.MemBudget)
	}
	return best, nil
}
