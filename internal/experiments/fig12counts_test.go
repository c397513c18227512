package experiments

import (
	"fmt"
	"testing"

	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
)

// slowestEdgeElems is the largest per-epoch Σ_l Edges·d^(l) over a plan's
// per-worker Ledgers: the edge work of the worker the epoch waits for.
func (c *cell) slowestEdgeElems(leds []hybrid.Ledger) (most int64) {
	for _, led := range leds {
		var elems int64
		for l, w := range led.Layers {
			elems += w.Edges * int64(c.p.Dims[l+1])
		}
		most = max(most, elems)
	}
	return most
}

// TestFig12Counted is Fig. 12's explanation as a count (§5.5, ROADMAP
// reading (xvi)): DepCache's redundant work grows with the cluster. For GCN
// on pokec and reddit at fig2aCosts(15), the slowest worker's edge elements
// times m, over m = 1's, rise with m at L = 3 for DepCache and reach ≥ 5×
// (pokec) and ≥ 4× (reddit) at m = 16, while DepComm's and the hybrid's stay
// ≤ 2×. At L = 2 the bound layer 1 walks no edge in an epoch, so the three
// policies walk the same edges (reading ix). It fails when lift stops
// charging replica edges. Run with -v for EXPERIMENTS.md's table.
func TestFig12Counted(t *testing.T) {
	costs := fig2aCosts(15)
	for _, g := range []struct {
		name string
		at16 float64 // DepCache's least scale-up at m = 16, L = 3
	}{{"pokec", 5}, {"reddit", 4}} {
		for _, L := range []int{2, 3} {
			var base [3]int64 // DepCache, DepComm, hybrid at m = 1
			var prev float64
			for _, m := range []int{1, 2, 4, 8, 16} {
				cl := cellOf(key(g.name, m, L, nn.GCN))
				var elems [3]int64
				var scale [3]float64
				for i, leds := range [][]hybrid.Ledger{cl.cache, cl.comm, cl.ledgers(cl.greedyAt(costs))} {
					if elems[i] = int64(m) * cl.slowestEdgeElems(leds); m == 1 {
						base[i] = elems[i]
					}
					scale[i] = float64(elems[i]) / float64(base[i])
				}
				cell := fmt.Sprintf("%s L=%d m=%d", g.name, L, m)
				t.Logf("%s: DepCache %.2f  DepComm %.2f  hybrid %.2f", cell, scale[0], scale[1], scale[2])
				switch {
				case L == 2 && (elems[0] != elems[1] || elems[1] != elems[2]):
					t.Errorf("%s: DepCache, DepComm and the hybrid walk %v edge elements, want the same", cell, elems)
				case L == 3 && (scale[1] > 2 || scale[2] > 2):
					t.Errorf("%s: DepComm scales %.2f×, the hybrid %.2f×, want ≤ 2×", cell, scale[1], scale[2])
				case L == 3 && m > 1 && scale[0] <= prev:
					t.Errorf("%s: DepCache scales %.2f×, not above m/2's %.2f×", cell, scale[0], prev)
				case L == 3 && m == 16 && scale[0] < g.at16:
					t.Errorf("%s: DepCache scales %.2f×, want ≥ %g×", cell, scale[0], g.at16)
				}
				prev = scale[0]
			}
		}
	}
}
