package experiments

import (
	"math"
	"slices"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
)

// The model-space grid every priced assertion reads: CAGNET's per-layout
// volume table (PAPERS.md), counted. A cell (graph, W, L, model; PlanFor's
// Chunk partition) holds its planner and the Ledgers of the Costs-free
// candidates, and runs Algorithm 4's greedy once per Costs. Each graph loads
// and each cell plans once; views run serially and never plan.
var gridGraphs, gridCells = map[dataset.Spec]*dataset.Dataset{}, map[cellKey]*cell{}

type cellKey struct {
	graph           dataset.Spec
	workers, layers int
	model           nn.ModelKind
}

type cell struct {
	p                  *hybrid.Planner
	comm, cache, allTP []hybrid.Ledger
	greedy             map[costmodel.Costs][]*hybrid.Decision
	offered            int // ModeHybrid3's candidates, the greedy among them
}

func key(name string, workers, layers int, model nn.ModelKind) cellKey {
	return cellKey{dataset.MustGet(name), workers, layers, model}
}

// cellOf returns k's cell, planning it on first use.
func cellOf(k cellKey) *cell {
	if gridCells[k] == nil {
		if gridGraphs[k.graph] == nil {
			gridGraphs[k.graph] = dataset.Load(k.graph)
		}
		opts := engine.Options{Workers: k.workers, Model: k.model, Layers: k.layers}
		plan := must(engine.PlanFor(gridGraphs[k.graph], opts, func(_ *hybrid.Planner, m *hybrid.Mode) { *m = hybrid.ModeAllComm }))
		c := &cell{p: plan.Planner, greedy: map[costmodel.Costs][]*hybrid.Decision{}}
		c.comm, c.cache = c.ledgers(plan.Decisions), c.ledgers(must(c.p.Candidates(hybrid.ModeAllCache))[0].Plan)
		c.allTP, gridCells[k] = c.ledgers(must(c.p.Candidates(hybrid.ModeAllTP))[0].Plan), c
	}
	return gridCells[k]
}

// greedyAt returns ModeHybrid3's second candidate, the greedy's plan.
func (c *cell) greedyAt(costs costmodel.Costs) []*hybrid.Decision {
	if c.greedy[costs] == nil {
		cands := must(c.at(costs).Candidates(hybrid.ModeHybrid3))
		c.greedy[costs], c.offered = cands[1].Plan, len(cands)
	}
	return c.greedy[costs]
}

// tpPrices prices every TP suffix, from layer L down to 1, over the greedy
// split of below, the L−1-layer cell: the greedy decides layer l from
// d^(0..l−1) alone, so its plan is the L-layer greedy's prefix.
func (c *cell) tpPrices(below *cell, costs costmodel.Costs) (prices []float64) {
	L, prefix, q := len(c.p.Dims)-1, below.greedyAt(costs), c.at(costs)
	tp := make([]bool, L)
	for t := L; t > 1; t-- {
		plan := make([]*hybrid.Decision, len(prefix))
		for w, base := range prefix {
			plan[w] = &hybrid.Decision{R: base.R[:t-1], C: base.C[:t-1], TP: tp}
		}
		tp[t-1] = true
		prices = append(prices, q.Summed(c.ledgers(plan)))
	}
	return append(prices, q.Summed(c.allTP))
}

// at is the cell's planner priced by costs.
func (c *cell) at(costs costmodel.Costs) *hybrid.Planner { q := *c.p; q.Costs = costs; return &q }

func (c *cell) ledgers(plan []*hybrid.Decision) []hybrid.Ledger {
	leds := make([]hybrid.Ledger, len(plan))
	for w, d := range plan {
		leds[w] = c.p.Ledger(w, d)
	}
	return leds
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// fig2aCosts prices the Fig. 2a generators at Tv = 2.98·Te, Tc/Te = r (reading (xv)).
var fig2a, fig2aTcTe = []string{"google", "pokec", "reddit", "livejournal"}, []float64{2, 8, 15, 45, 150}

func fig2aCosts(r float64) costmodel.Costs {
	return costmodel.Costs{Tv: 2.98e-9, Te: 1e-9, Tc: r * 1e-9}
}

func boundCosts(tc float64) costmodel.Costs { return costmodel.Costs{Tv: 3e-8, Te: 1e-8, Tc: tc} }

// benchRMAT is train-hybrid-gat's graph.
var benchRMAT = dataset.Spec{Name: "bench-rmat", Gen: dataset.GenRMAT, Vertices: 7000, AvgDegree: 18, Skew: 0.45,
	FeatureDim: 64, HiddenDim: 32, NumClasses: 16, Seed: 11}

// TestDepTPHome: DepTP has a home where NeutronTP (PAPERS.md) puts it — a
// dense graph, a sum-decomposable model, depth. For a 3-layer GCN on 4 or 8
// workers at fig2aCosts, ModeHybrid3's best TP candidate prices ≤ 0.9 of its
// best non-TP one on reddit (1.000–1.216 without SliceTP) and ≥ 1.1 on google
// and livejournal; the greedy, which only lowers the latter, is priced only
// where min(comm, cache) misses the bound.
func TestDepTPHome(t *testing.T) {
	for _, c := range []struct {
		name     string
		min, max float64 // the TP/non-TP ratio's allowed range
	}{{"reddit", 0, 0.9}, {"google", 1.1, math.Inf(1)}, {"livejournal", 1.1, math.Inf(1)}} {
		for _, workers := range []int{4, 8} {
			cl, below := cellOf(key(c.name, workers, 3, nn.GCN)), cellOf(key(c.name, workers, 2, nn.GCN))
			for _, tcTe := range fig2aTcTe {
				q := cl.at(fig2aCosts(tcTe))
				bestTP, bestOther := slices.Min(cl.tpPrices(below, q.Costs)), min(q.Summed(cl.comm), q.Summed(cl.cache))
				if c.max < math.Inf(1) || bestTP/bestOther < c.min {
					bestOther = min(bestOther, q.Summed(cl.ledgers(cl.greedyAt(q.Costs))))
				}
				if ratio := bestTP / bestOther; !(ratio >= c.min && ratio <= c.max) {
					t.Errorf("%s W=%d Tc/Te=%g: best TP / best non-TP = %.3f, want in [%g, %g]", c.name, workers, tcTe, ratio, c.min, c.max)
				}
			}
		}
	}
}

// TestWholeBlockTPNeverWins: without SliceTP a TP layer fetches every peer's
// whole owned block. For GAT on the Fig. 2a generators (W ∈ {4, 8}, L ∈ {2,
// 3}, fig2aCosts, reading (xvii)) and train-hybrid-gat's graph, ModeHybrid3
// offers comm, greedy and cache only, and no TP suffix prices below the best
// of them; the L-layer greedy (seconds a cell on pokec at L = 3) is priced
// only for a suffix below min(comm, cache).
func TestWholeBlockTPNeverWins(t *testing.T) {
	cells := []cellKey{{benchRMAT, 4, 2, nn.GAT}}
	for _, name := range fig2a {
		cells = append(cells, key(name, 4, 2, nn.GAT), key(name, 4, 3, nn.GAT), key(name, 8, 2, nn.GAT), key(name, 8, 3, nn.GAT))
	}
	for _, k := range cells {
		cl, below := cellOf(k), cellOf(cellKey{k.graph, k.workers, k.layers - 1, k.model})
		for _, tcTe := range fig2aTcTe {
			q, prices := cl.at(fig2aCosts(tcTe)), cl.tpPrices(below, fig2aCosts(tcTe))
			if below.offered != 3 {
				t.Fatalf("%s W=%d L=%d: ModeHybrid3 offers %d candidates without SliceTP, want comm, greedy and cache", k.graph.Name, k.workers, k.layers, below.offered)
			}
			if best := min(q.Summed(cl.comm), q.Summed(cl.cache)); slices.Min(prices) < best {
				best = min(best, q.Summed(cl.ledgers(cl.greedyAt(q.Costs))))
				for i, price := range prices {
					if price < best {
						t.Errorf("%s W=%d L=%d Tc/Te=%g: TP from layer %d prices %.6f of the best non-TP plan", k.graph.Name, k.workers, k.layers, tcTe, k.layers-i, price/best)
					}
				}
			}
		}
	}
}

// TestBoundLayer1Threshold: with layer 1 bound, a 2-layer GCN's DepCache and
// DepComm hold the same dependency set, one recomputing it at Tv·d¹ a row and
// the other fetching it at Tc·d¹ a row, so on every Fig. 2a graph and
// cluster size their priced ratio is Tv/Tc and Algorithm 4 caches all of it
// or none: its plan prices exactly min(pure), and a tie falls to comm.
func TestBoundLayer1Threshold(t *testing.T) {
	for _, name := range fig2a {
		for _, workers := range []int{4, 8} {
			cl := cellOf(key(name, workers, 2, nn.GCN))
			for _, tc := range []float64{1e-8, 3e-8, 9e-8} {
				q, g := cl.at(boundCosts(tc)), cl.greedyAt(boundCosts(tc))
				cache, comm, hyb, tvTc := q.Summed(cl.cache), q.Summed(cl.comm), q.Summed(cl.ledgers(g)), q.Costs.Tv/tc
				if rel := math.Abs(cache/comm-tvTc) / tvTc; rel > 1e-9 {
					t.Fatalf("%s W=%d Tc=%g: DepCache/DepComm priced %.12g, want Tv/Tc = %.12g", name, workers, tc, cache/comm, tvTc)
				}
				if hyb != min(cache, comm) {
					t.Fatalf("%s W=%d Tc=%g: hybrid priced %.17g, min(pure) %.17g", name, workers, tc, hyb, min(cache, comm))
				}
				if w := slices.IndexFunc(g, func(d *hybrid.Decision) bool { return len(d.R[1]) != 0 }); tc == q.Costs.Tv && w >= 0 {
					t.Fatalf("%s W=%d: at Tv = Tc worker %d caches %d layer-2 dependencies, want the tie to fall to comm", name, workers, w, len(g[w].R[1]))
				}
			}
		}
	}
}
