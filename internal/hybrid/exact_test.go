package hybrid

import (
	"fmt"
	"math"
)

// The paper observes (§3) that minimising Eq. 3 is NP-hard — it reduces to
// 0-1 integer linear programming — which is why Algorithm 4 is a greedy
// heuristic. This file provides an exhaustive solver for tiny instances
// (|D| small enough that (2^|D|)^L enumeration is feasible): the tests'
// oracle of how far the greedy lands from the true optimum under the same
// cost semantics.

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
