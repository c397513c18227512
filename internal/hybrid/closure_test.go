package hybrid

import (
	"reflect"
	"testing"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/graph"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// evaluateCostSplit is the evaluator's three prices, the view of Charge the
// pricing tests compare.
func (p *Planner) evaluateCostSplit(worker int, d *Decision) (cacheCost, commCost float64, bytes int64) {
	ch := p.Charge(worker, d)
	return ch.CacheCost, ch.CommCost, ch.Bytes
}

// epochCost is the per-epoch seconds Charge prices d at, the sum the
// candidate argmin compares.
func (p *Planner) epochCost(worker int, d *Decision) float64 {
	ch := p.Charge(worker, d)
	return ch.CacheCost + ch.CommCost
}

// randomInstance draws a skewed random graph (low ids are hubs, with
// self-loops and multi-edges) under a chunk partition.
func randomInstance(t *testing.T, rng *tensor.RNG, parts int) (*graph.Graph, *partition.Partition) {
	t.Helper()
	n := 12 + rng.Intn(60)
	edges := make([]graph.Edge, n*(1+rng.Intn(4)))
	for i := range edges {
		u := rng.Float64()
		edges[i] = graph.Edge{Src: int32(u * u * float64(n)), Dst: int32(rng.Intn(n))}
	}
	g := graph.MustFromEdges(n, edges)
	p, err := partition.New(partition.Chunk, g, parts)
	if err != nil {
		t.Fatal(err)
	}
	return g, p
}

func chainDims(L int) []int {
	dims := []int{8}
	for l := 1; l < L; l++ {
		dims = append(dims, 6)
	}
	return append(dims, 3)
}

// levels flattens a closure to its per-level sets, the form every consumer
// reads.
func levels(c *Closure, L int) [][]int32 {
	out := make([][]int32, L)
	for k := range out {
		out[k] = c.At(k)
	}
	return out
}

// TestClosureAddOrderIndependent: a Closure grown by Add in any order equals
// the bulk closure of the same Decision, and the levels Add reports lifted
// account for exactly what the closure ends up holding.
func TestClosureAddOrderIndependent(t *testing.T) {
	rng := tensor.NewRNG(19)
	for trial := 0; trial < 40; trial++ {
		L := 2 + trial%2
		g, p := randomInstance(t, rng, 3)
		pl := &Planner{Graph: g, Part: p, Dims: chainDims(L), Ratio: 0.5,
			Costs: costmodel.Costs{Tv: 1e-7, Te: 1e-8, Tc: 1e-7}}
		decs, err := pl.DecideAll(ModeRatio)
		if err != nil {
			t.Fatal(err)
		}
		for w, d := range decs {
			want := levels(ClosureOf(g, p, w, d), L)

			type add struct {
				u   int32
				lvl int
			}
			var adds []add
			for l := 1; l <= L; l++ {
				for _, u := range d.R[l-1] {
					adds = append(adds, add{u, l - 1})
				}
			}
			c := NewClosure(g, p, w)
			top := make(map[int32]int)
			for _, i := range rng.Perm(len(adds)) {
				for _, r := range c.Add(adds[i].u, adds[i].lvl) {
					if have, ok := top[r.V]; (ok && have != r.From) || (!ok && r.From != -1) || r.To <= r.From {
						t.Fatalf("trial %d worker %d: Add reports %+v over level %d (held %v)", trial, w, r, have, ok)
					}
					top[r.V] = r.To
				}
			}
			if got := levels(c, L); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d worker %d: shuffled Adds hold %v, bulk closure %v", trial, w, got, want)
			}
			for v, k := range top {
				if c.Level(v) != k || !c.Holds(v, k) || c.Holds(v, k+1) {
					t.Fatalf("trial %d worker %d: vertex %d reported lifted to %d, Level says %d", trial, w, v, k, c.Level(v))
				}
			}
			if len(top) != len(want[0]) {
				t.Fatalf("trial %d worker %d: %d vertices reported lifted, %d held", trial, w, len(top), len(want[0]))
			}
			for _, v := range p.Parts[w] {
				if c.Level(v) != -1 || !c.Holds(v, L) {
					t.Fatalf("trial %d worker %d: owned vertex %d is a replica", trial, w, v)
				}
			}
		}
	}
}

// TestClosureMatchesBuildReplicas: the all-cached closure is the vertex-cut
// replica set partition.BuildReplicas states independently.
func TestClosureMatchesBuildReplicas(t *testing.T) {
	rng := tensor.NewRNG(23)
	for trial := 0; trial < 30; trial++ {
		L := 1 + trial%3
		g, p := randomInstance(t, rng, 2+trial%3)
		pl := &Planner{Graph: g, Part: p, Dims: chainDims(L)}
		decs, err := pl.DecideAll(ModeAllCache)
		if err != nil {
			t.Fatal(err)
		}
		ref := partition.BuildReplicas(g, p, L)
		for w, d := range decs {
			got := levels(ClosureOf(g, p, w, d), L)
			for k := range got {
				if len(got[k]) == 0 && len(ref.Sets[w][k]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[k], ref.Sets[w][k]) {
					t.Fatalf("trial %d worker %d level %d: closure %v, BuildReplicas %v", trial, w, k, got[k], ref.Sets[w][k])
				}
			}
		}
	}
}

// TestRepSuffixesShareOneClosure: every replicated suffix replicates layer L,
// so whatever the greedy does below t, suffix(t, true) holds the same closure
// and is priced the same — which is why the family is the one candidate
// suffix(L, true).
func TestRepSuffixesShareOneClosure(t *testing.T) {
	rng := tensor.NewRNG(29)
	for trial := 0; trial < 30; trial++ {
		L := 2 + trial%2
		g, p := randomInstance(t, rng, 3)
		pl := &Planner{Graph: g, Part: p, Dims: chainDims(L), RepBudget: -1,
			RepCompression: float64(1 + trial%3),
			Costs:          costmodel.Costs{Tv: 1e-7, Te: 1e-8, Tc: float64(1+trial%5) * 1e-7}}
		c := &candidates{p: pl, deps: make([][]int32, p.NumParts)}
		for w := range c.deps {
			c.deps[w] = pl.dependencies(w)
		}
		if got := c.repSuffixes(); len(got) != 1 {
			t.Fatalf("trial %d: %d replicated candidates, want 1", trial, len(got))
		}
		top := c.suffix(L, true)
		for tt := 1; tt < L; tt++ {
			plan := c.suffix(tt, true)
			for w := range plan {
				if got, want := levels(ClosureOf(g, p, w, plan[w]), L), levels(ClosureOf(g, p, w, top[w]), L); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d worker %d: suffix %d holds %v, suffix %d holds %v", trial, w, tt, got, L, want)
				}
				ca, co, by := pl.evaluateCostSplit(w, plan[w])
				ta, to, tb := pl.evaluateCostSplit(w, top[w])
				if ca != ta || co != to || by != tb || co != 0 {
					t.Fatalf("trial %d worker %d: suffix %d priced %g/%g/%d, suffix %d priced %g/%g/%d",
						trial, w, tt, ca, co, by, L, ta, to, tb)
				}
			}
		}
	}
}
