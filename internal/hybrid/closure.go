package hybrid

import (
	"neutronstar/internal/graph"
	"neutronstar/internal/partition"
)

// Closure is the set of replicas one worker holds locally: the level-aware
// in-neighbour closure of its cached dependencies. It is the paper's Eq. 1
// subtree V_i^k(u), Algorithm 2's BFS retrieval and Algorithm 4's V_rep as
// one object, and the only production code that knows the rule
//
//	caching u for layer l needs h^(l-1)_u locally, hence u at every lower
//	level (the self chain down to its features) and every non-owned
//	in-neighbour of u one level down, recursively.
//
// The planner prices a Decision's Closure, the greedy grows one as its V_rep,
// and the execution plan reads its cached blocks and its "already held, do
// not fetch" test from the same walk. partition.BuildReplicas states the
// all-cached case independently and is the reference it is checked against.
//
// A vertex is recorded with the highest level it is held at; holding level k
// implies holding levels 0..k. Owned vertices are never replicas. The result
// of any sequence of Adds is the same whatever their order.
type Closure struct {
	g      *graph.Graph
	assign []int32
	worker int32
	held   []uint8 // per vertex: 1 + the level it is held at, 0 if none
	raised []Raise // Add's result buffer
	stack  []want  // Add's work list
}

// want is a pending requirement of Add's walk: h^(lvl)_v must be computable.
type want struct {
	v   int32
	lvl int
}

// Raise records that Add lifted replica V from level From to level To; From
// is -1 when V was not held before.
type Raise struct {
	V        int32
	From, To int
}

// NewClosure returns worker's empty closure over g under part.
func NewClosure(g *graph.Graph, part *partition.Partition, worker int) *Closure {
	return &Closure{g: g, assign: part.Assign, worker: int32(worker), held: make([]uint8, g.NumVertices())}
}

// ClosureOf returns the closure of everything d caches for worker: every
// dependency in R[l-1] held at level l-1 (tensor-parallel layers carry an
// empty R). Deepest layer first, so most replicas are lifted once, straight
// to their final level.
func ClosureOf(g *graph.Graph, part *partition.Partition, worker int, d *Decision) *Closure {
	c := NewClosure(g, part, worker)
	for l := len(d.R); l >= 1; l-- {
		for _, u := range d.R[l-1] {
			c.Add(u, l-1)
		}
	}
	return c
}

// Add makes h^(lvl)_u locally computable and reports every replica it had to
// lift to get there, in walk order; a replica lifted twice appears twice,
// with adjoining levels. The returned slice is valid until the next Add.
func (c *Closure) Add(u int32, lvl int) []Raise {
	c.raised = c.raised[:0]
	c.stack = append(c.stack[:0], want{u, lvl})
	for len(c.stack) > 0 {
		e := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		if e.lvl < 0 || c.assign[e.v] == c.worker {
			continue
		}
		have := c.Level(e.v)
		if have >= e.lvl {
			continue
		}
		c.held[e.v] = uint8(e.lvl + 1)
		c.raised = append(c.raised, Raise{V: e.v, From: have, To: e.lvl})
		if e.lvl >= 1 {
			for _, w := range c.g.InNeighbors(e.v) {
				c.stack = append(c.stack, want{w, e.lvl - 1})
			}
		}
	}
	return c.raised
}

// Undo reverts the Add that reported raised: every replica it lifted returns
// to the level it was lifted from.
func (c *Closure) Undo(raised []Raise) {
	for i := len(raised) - 1; i >= 0; i-- {
		c.held[raised[i].V] = uint8(raised[i].From + 1)
	}
}

// Level returns the highest level replica v is held at, or -1 when v is not
// a replica (owned vertices included).
func (c *Closure) Level(v int32) int { return int(c.held[v]) - 1 }

// Holds reports whether h^(lvl)_v is available without a fetch: v is owned,
// or a replica held at lvl or above.
func (c *Closure) Holds(v int32, lvl int) bool {
	return c.assign[v] == c.worker || c.Level(v) >= lvl
}

// At returns the replicas held at level k (or above, which implies k),
// ascending.
func (c *Closure) At(k int) []int32 {
	var out []int32
	for v, h := range c.held {
		if int(h) > k {
			out = append(out, int32(v))
		}
	}
	return out
}
