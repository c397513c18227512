package partition

import (
	"sort"

	"neutronstar/internal/graph"
)

// This file implements a multilevel partitioner in the style of METIS
// (Karypis & Kumar): coarsen the graph by heavy-edge matching until it is
// small, partition the coarsest graph, then project the assignment back up,
// refining at every level. It is the "metis" algorithm. A graph already
// small relative to the part count is not coarsened at all: the multi-start
// greedy growth and refinement partition it directly, which also covers
// graphs with fewer vertices than parts (some parts stay empty).

// weightedGraph is an undirected multigraph with vertex and edge weights,
// in adjacency-list form, used only during multilevel partitioning.
type weightedGraph struct {
	vwgt []int32   // vertex weights (collapsed vertex counts)
	adj  [][]wedge // symmetrised adjacency
}

type wedge struct {
	to int32
	w  int32
}

func (wg *weightedGraph) numVertices() int { return len(wg.vwgt) }

func (wg *weightedGraph) totalVertexWeight() int64 {
	var t int64
	for _, w := range wg.vwgt {
		t += int64(w)
	}
	return t
}

// buildWeighted symmetrises the directed input graph, merging parallel edges.
func buildWeighted(g *graph.Graph) *weightedGraph {
	n := g.NumVertices()
	wg := &weightedGraph{vwgt: make([]int32, n), adj: make([][]wedge, n)}
	for i := range wg.vwgt {
		wg.vwgt[i] = 1
	}
	type key struct{ a, b int32 }
	counts := make(map[key]int32, g.NumEdges())
	for v := int32(0); v < int32(n); v++ {
		for _, u := range g.InNeighbors(v) {
			if u == v {
				continue
			}
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			counts[key{a, b}]++
		}
	}
	for k, w := range counts {
		wg.adj[k.a] = append(wg.adj[k.a], wedge{to: k.b, w: w})
		wg.adj[k.b] = append(wg.adj[k.b], wedge{to: k.a, w: w})
	}
	wg.sortAdj()
	return wg
}

// sortAdj orders every adjacency list by neighbor id: map-built lists are
// otherwise iteration-order random, which would make matching — and the
// whole partition — nondeterministic.
func (wg *weightedGraph) sortAdj() {
	for _, a := range wg.adj {
		sort.Slice(a, func(i, j int) bool { return a[i].to < a[j].to })
	}
}

// level records one coarsening step: fineToCoarse maps fine vertices to
// their coarse representative.
type level struct {
	fine         *weightedGraph
	fineToCoarse []int32
}

// coarsen performs one round of heavy-edge matching and contraction.
// Returns nil when the graph cannot shrink meaningfully further.
func coarsen(wg *weightedGraph) (*weightedGraph, []int32) {
	n := wg.numVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	// Visit vertices in degree order (low first) and match each unmatched
	// vertex to its heaviest unmatched neighbor.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		return len(wg.adj[order[a]]) < len(wg.adj[order[b]])
	})
	matched := 0
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best := int32(-1)
		var bestW int32
		for _, e := range wg.adj[v] {
			if match[e.to] == -1 && e.to != v && e.w > bestW {
				best, bestW = e.to, e.w
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
			matched += 2
		} else {
			match[v] = v
		}
	}
	if matched < n/10 {
		return nil, nil // diminishing returns; stop coarsening
	}

	// Assign coarse ids.
	fineToCoarse := make([]int32, n)
	for i := range fineToCoarse {
		fineToCoarse[i] = -1
	}
	next := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if fineToCoarse[v] != -1 {
			continue
		}
		fineToCoarse[v] = next
		if m := match[v]; m != v && m >= 0 {
			fineToCoarse[m] = next
		}
		next++
	}

	// Contract.
	coarse := &weightedGraph{vwgt: make([]int32, next), adj: make([][]wedge, next)}
	for v := int32(0); v < int32(n); v++ {
		coarse.vwgt[fineToCoarse[v]] += wg.vwgt[v]
	}
	type key struct{ a, b int32 }
	acc := make(map[key]int32)
	for v := int32(0); v < int32(n); v++ {
		cv := fineToCoarse[v]
		for _, e := range wg.adj[v] {
			cu := fineToCoarse[e.to]
			if cu == cv {
				continue
			}
			a, b := cv, cu
			if a > b {
				a, b = b, a
			}
			acc[key{a, b}] += e.w
		}
	}
	for k, w := range acc {
		// Each undirected edge was accumulated from both endpoints.
		w /= 2
		if w == 0 {
			w = 1
		}
		coarse.adj[k.a] = append(coarse.adj[k.a], wedge{to: k.b, w: w})
		coarse.adj[k.b] = append(coarse.adj[k.b], wedge{to: k.a, w: w})
	}
	coarse.sortAdj()
	return coarse, fineToCoarse
}

// cutWeight returns the weighted undirected cut of an assignment.
func cutWeight(wg *weightedGraph, assign []int32) int64 {
	var cut int64
	for v := int32(0); v < int32(wg.numVertices()); v++ {
		for _, e := range wg.adj[v] {
			if assign[e.to] != assign[v] {
				cut += int64(e.w)
			}
		}
	}
	return cut / 2
}

// initialAssign partitions the coarsest graph: several greedy-growth
// attempts with different seed sets, each refined, keeping the best cut
// (the multilevel paradigm's standard multi-start initial phase — cheap
// because the coarsest graph is tiny).
func initialAssign(wg *weightedGraph, numParts int) []int32 {
	const attempts = 8
	var best []int32
	bestCut := int64(-1)
	for a := 0; a < attempts; a++ {
		cand := initialAssignOnce(wg, numParts, a)
		refineWeighted(wg, cand, numParts)
		if c := cutWeight(wg, cand); bestCut < 0 || c < bestCut {
			best, bestCut = cand, c
		}
	}
	return best
}

// initialAssignOnce grows parts greedily from one seed set, balanced on
// vertex weight. attempt rotates the seed choice.
func initialAssignOnce(wg *weightedGraph, numParts, attempt int) []int32 {
	n := wg.numVertices()
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	capLimit := wg.totalVertexWeight()/int64(numParts) + int64(wg.totalVertexWeight())/int64(numParts*10) + 1
	loads := make([]int64, numParts)

	// Seed with heavy vertices spread across parts, rotated per attempt.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return wg.vwgt[order[a]] > wg.vwgt[order[b]] })
	frontiers := make([][]int32, numParts)
	for p := 0; p < numParts && p < n; p++ {
		v := order[(p+attempt*numParts)%n]
		if assign[v] != -1 {
			// Seed collision after rotation: pick the next free vertex.
			for _, w := range order {
				if assign[w] == -1 {
					v = w
					break
				}
			}
		}
		assign[v] = int32(p)
		loads[p] += int64(wg.vwgt[v])
		frontiers[p] = []int32{v}
	}
	active := true
	for active {
		active = false
		for p := 0; p < numParts; p++ {
			var next []int32
			for _, v := range frontiers[p] {
				for _, e := range wg.adj[v] {
					if assign[e.to] == -1 && loads[p]+int64(wg.vwgt[e.to]) <= capLimit {
						assign[e.to] = int32(p)
						loads[p] += int64(wg.vwgt[e.to])
						next = append(next, e.to)
					}
				}
			}
			frontiers[p] = next
			if len(next) > 0 {
				active = true
			}
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if assign[v] == -1 {
			best := 0
			for p := 1; p < numParts; p++ {
				if loads[p] < loads[best] {
					best = p
				}
			}
			assign[v] = int32(best)
			loads[best] += int64(wg.vwgt[v])
		}
	}
	return assign
}

// refineWeighted runs boundary label propagation on a weighted graph,
// moving vertices to the neighboring part with the greatest edge-weight
// gain subject to the weight balance limit.
func refineWeighted(wg *weightedGraph, assign []int32, numParts int) {
	loads := make([]int64, numParts)
	for v := int32(0); v < int32(wg.numVertices()); v++ {
		loads[assign[v]] += int64(wg.vwgt[v])
	}
	capLimit := wg.totalVertexWeight()/int64(numParts) + wg.totalVertexWeight()/int64(numParts*10) + 1
	gain := make([]int64, numParts)
	for pass := 0; pass < 8; pass++ {
		moved := 0
		for v := int32(0); v < int32(wg.numVertices()); v++ {
			cur := assign[v]
			for i := range gain {
				gain[i] = 0
			}
			for _, e := range wg.adj[v] {
				gain[assign[e.to]] += int64(e.w)
			}
			best := cur
			for p := int32(0); p < int32(numParts); p++ {
				if p == cur {
					continue
				}
				if gain[p] > gain[best] && loads[p]+int64(wg.vwgt[v]) <= capLimit {
					best = p
				}
			}
			if best != cur && gain[best] > gain[cur] {
				assign[v] = best
				loads[cur] -= int64(wg.vwgt[v])
				loads[best] += int64(wg.vwgt[v])
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// multilevelPartition runs the full coarsen → partition → uncoarsen+refine
// pipeline.
func multilevelPartition(g *graph.Graph, numParts int) *Partition {
	wg := buildWeighted(g)
	var levels []level
	cur := wg
	for cur.numVertices() > numParts*32 && len(levels) < 24 {
		coarse, f2c := coarsen(cur)
		if coarse == nil {
			break
		}
		levels = append(levels, level{fine: cur, fineToCoarse: f2c})
		cur = coarse
	}
	assign := initialAssign(cur, numParts)
	refineWeighted(cur, assign, numParts)
	// Uncoarsen with refinement at every level.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		fineAssign := make([]int32, lv.fine.numVertices())
		for v := range fineAssign {
			fineAssign[v] = assign[lv.fineToCoarse[v]]
		}
		assign = fineAssign
		refineWeighted(lv.fine, assign, numParts)
	}
	return fromAssign(assign, numParts)
}
