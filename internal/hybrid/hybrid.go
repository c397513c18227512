// Package hybrid implements NeutronStar's core contribution: the dependency
// partitioning of Algorithm 4. For every worker and every layer, each remote
// dependency is assigned to either the DepCache set R_i^l (replicate its
// multi-hop subtree and recompute locally) or the DepComm set C_i^l (fetch
// its representation from its owner every epoch), by greedily caching the
// dependencies whose redundant-computation cost t_r^l(u) (Eq. 1) is below
// their communication cost t_c^l(u) (Eq. 2), discounting subtree overlap
// through the shared replica set V_rep, subject to the memory budget S.
//
// Setting every dependency to Cache reproduces the DepCache engine
// (Algorithm 2); setting every dependency to Comm reproduces DepComm
// (Algorithm 3). The execution engine consumes the same Decision structure
// for every mode, which is exactly how the paper built its baselines
// ("DepCache and DepComm with NeutronStar's codebase"). A mode is a row of
// modeTable: the candidate plans that compete, in tie order, and the budget
// each answers to; DecideAll prices them all with one evaluator and keeps
// the cheapest.
package hybrid

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"

	"neutronstar/internal/costmodel"
	"neutronstar/internal/graph"
	"neutronstar/internal/partition"
)

// Decision records, for one worker, the per-layer split of its remote
// dependencies. Layer l (1-based) uses index l-1. On a non-tensor-parallel
// layer every dependency of the worker appears in exactly one of R[l-1] or
// C[l-1]; on a tensor-parallel layer both sets are empty and TP[l-1] is
// true — the layer has no per-vertex dependencies at all.
type Decision struct {
	// R[l-1] lists dependencies cached for layer l, ascending.
	R [][]int32
	// C[l-1] lists dependencies communicated at layer l, ascending.
	C [][]int32
	// TP[l-1] marks layer l as tensor-parallel (DepTP): under SliceTP the
	// worker computes an F/N-wide feature shard over the full graph and the
	// slice-exchange collectives replace R and C entirely; without it the
	// layer reads every peer's whole owned block over the master–mirror
	// exchange. TP is a cluster-level per-layer choice, identical across all
	// workers' Decisions, and may be nil (all false) outside DecideAll.
	TP []bool
	// Rep[l-1] marks layer l as replicated (DepRep): every remote dependency
	// is cached (R[l-1] holds the full dependency set) and the planner prices
	// the replica storage against RepBudget rather than MemBudget. Like TP,
	// Rep is a cluster-level per-layer choice and may be nil (all false) on
	// Decisions built outside DecideAll.
	Rep []bool
}

// TPAt reports whether layer l (1-based) is tensor-parallel under this
// decision. Safe on a nil TP.
func (d *Decision) TPAt(l int) bool {
	return d.TP != nil && l-1 < len(d.TP) && d.TP[l-1]
}

// NumTP returns the number of tensor-parallel layers.
func (d *Decision) NumTP() int {
	n := 0
	for _, tp := range d.TP {
		if tp {
			n++
		}
	}
	return n
}

// RepAt reports whether layer l (1-based) is replicated under this decision.
// Safe on a nil Rep.
func (d *Decision) RepAt(l int) bool {
	return d.Rep != nil && l-1 < len(d.Rep) && d.Rep[l-1]
}

// NumRep returns the number of replicated layers.
func (d *Decision) NumRep() int {
	n := 0
	for _, r := range d.Rep {
		if r {
			n++
		}
	}
	return n
}

// NumCached returns the total cached dependencies across layers.
func (d *Decision) NumCached() int {
	n := 0
	for _, r := range d.R {
		n += len(r)
	}
	return n
}

// NumComm returns the total communicated dependencies across layers.
func (d *Decision) NumComm() int {
	n := 0
	for _, c := range d.C {
		n += len(c)
	}
	return n
}

// Mode selects how dependencies are assigned.
type Mode int

const (
	// ModeHybrid runs Algorithm 4 (cost-based greedy).
	ModeHybrid Mode = iota
	// ModeAllCache assigns every dependency to R (DepCache engine).
	ModeAllCache
	// ModeAllComm assigns every dependency to C (DepComm engine).
	ModeAllComm
	// ModeRatio caches a fixed fraction of dependencies per layer, most
	// cache-efficient first (Figure 11's manual sweep).
	ModeRatio
	// ModeAllTP runs every layer tensor-parallel (the pure DepTP engine).
	ModeAllTP
	// ModeHybrid3 widens the greedy to the 3-way per-layer choice: the
	// 2-way Algorithm 4 mix, pure caching, pure communication, and
	// tensor-parallel layer suffixes all compete on modeled cost. It is
	// ModeHybrid4's row without the replicated family.
	ModeHybrid3
	// ModeAllRep replicates every layer (the pure DepRep engine): R holds the
	// full dependency set at every layer, replica storage is priced with the
	// compression factor, and no per-epoch dependency traffic remains.
	ModeAllRep
	// ModeHybrid4 widens the candidate family once more: everything
	// ModeHybrid3 considers plus the replicated top layer, gated by
	// RepBudget.
	ModeHybrid4
)

// Planner derives per-worker Decisions.
type Planner struct {
	Graph *graph.Graph
	Part  *partition.Partition
	// Dims is the representation dimension chain d^(0)..d^(L).
	Dims  []int
	Costs costmodel.Costs
	// MemBudget caps a plan's replica bytes (Charge.Bytes) per worker; zero
	// or negative means unlimited.
	MemBudget int64
	// RepBudget caps the replicated candidate's replica bytes per worker in
	// ModeHybrid4; zero or negative means unlimited. ModeAllRep ignores it —
	// an explicitly requested pure policy is not a candidate competition.
	RepBudget int64
	// RepCompression divides the replicated candidate's stored row bytes
	// (costmodel.RepReplicaBytes); values < 1 are treated as 1, the exact
	// float32 rows the engine stores. Only the benchmark ladder and the
	// hybrid tests set it.
	RepCompression float64
	// Ratio is the cached fraction for ModeRatio, in [0, 1].
	Ratio float64
	// SliceTP reports that the model's layers are nn.SumDecomposable
	// (nn.SliceSeparable names the same kinds), and names what that buys:
	// tensor-parallel layers run the slice dataflow (costmodel.TPVolume) and
	// compete in ModeHybrid3 and ModeHybrid4 (without it a TP layer fetches
	// every peer's whole owned block, which never prices below pure
	// communication), and a master–mirror layer 1 is bound — combined once,
	// at construction — so no epoch walks its edges (Ledger). The engine's
	// execution plans read it from here.
	SliceTP bool
}

// numLayers returns L.
func (p *Planner) numLayers() int { return len(p.Dims) - 1 }

// family is one entry of a mode's row: a generator of candidate plans (one
// Decision per worker each) and the budget those candidates answer to.
type family struct {
	gen    func(*candidates) [][]*Decision
	budget func(*Planner) int64
}

// A candidate whose replica bytes exceed a positive budget on any worker is
// infeasible; zero or negative means unlimited. An explicitly requested pure
// policy is not a candidate competition and answers to no budget, and the
// greedy alone enforces MemBudget itself (Algorithm 4 lines 14-15).
func unbudgeted(*Planner) int64  { return 0 }
func memBudget(p *Planner) int64 { return p.MemBudget }
func repBudget(p *Planner) int64 { return p.RepBudget }

// competing is the full candidate family, in tie order. Tensor parallelism
// and replication are not per-dependency choices like cache-vs-comm: such a
// layer requires every worker to run the same dataflow, so each is a
// cluster-global per-layer bit, and Algorithm 4 stays the per-vertex split
// below it.
//
// Suffixes (layers t..L) rather than arbitrary subsets keep every candidate
// sound by construction and the candidate space linear in L. A TP layer's
// input must be exactly the owned rows, which holds iff no layer at or above
// it caches dependencies; the greedy prefix below t only replicates at levels
// < t-1.
//
// The replicated family is one candidate, the suffix {L}. Every replicated
// suffix replicates layer L, which caches the whole dependency set at level
// L-1; the Closure of that already holds everything a lower layer could cache
// or fetch, so for every t the closure, the recompute price, the zero
// communication price and the bytes are the same (TestRepSuffixesShareOneClosure)
// and the strict argmin below could only ever return the shallowest.
//
// The replicated candidate answers to RepBudget, not MemBudget: replica rows
// live in their own store, so the cache budget does not govern them.
//
// Tie rule (generalizing Algorithm 4 line 11's "tie falls to comm"): the
// argmin takes a strictly cheaper candidate only, so on an exact tie the
// order below decides — comm over greedy over cache over TP over rep, and
// (suffixes come shallowest first) less tensor parallelism over more. In
// particular a fully replicated plan that ties with pure caching
// (same sets, same recompute, zero traffic on both) loses to it: replication
// must buy something — budget feasibility through compression — to be chosen.
// With one worker every volume is zero, every candidate ties at zero cost,
// and pure communication wins: empty sets, no TP, no replication.
var competing = []family{
	{(*candidates).comm, memBudget},
	{(*candidates).greedy, memBudget},
	{(*candidates).cache, memBudget},
	{(*candidates).tpSuffixes, memBudget},
	{(*candidates).repSuffixes, repBudget},
}

// modeTable maps every Mode to its row.
var modeTable = [...][]family{
	ModeHybrid:   {{(*candidates).greedy, unbudgeted}},
	ModeAllCache: {{(*candidates).cache, unbudgeted}},
	ModeAllComm:  {{(*candidates).comm, unbudgeted}},
	ModeRatio:    {{(*candidates).ratio, unbudgeted}},
	ModeAllTP:    {{(*candidates).allTP, unbudgeted}},
	ModeHybrid3:  competing[:4],
	ModeAllRep:   {{(*candidates).allRep, unbudgeted}},
	ModeHybrid4:  competing,
}

// Candidate is a plan (one Decision per worker) and the replica-byte budget
// it answers to on every worker (zero or negative: none).
type Candidate struct {
	Plan   []*Decision
	Budget int64
}

// Candidates lists mode's candidate plans in tie order, each with its own
// Decision structs: exactly the list DecideAll's argmin runs over.
func (p *Planner) Candidates(mode Mode) ([]Candidate, error) {
	if p.numLayers() < 1 {
		return nil, fmt.Errorf("hybrid: need at least 1 layer, dims=%v", p.Dims)
	}
	if mode < 0 || int(mode) >= len(modeTable) {
		return nil, fmt.Errorf("hybrid: unknown mode %d", mode)
	}
	c := &candidates{p: p}
	c.deps = make([][]int32, p.Part.NumParts)
	p.perWorker(func(i int) { c.deps[i] = p.dependencies(i) })
	var out []Candidate
	for _, fam := range modeTable[mode] {
		for _, plan := range fam.gen(c) {
			out = append(out, Candidate{Plan: plan, Budget: fam.budget(p)})
		}
	}
	return out, nil
}

// DecideAll computes one Decision per worker: of the mode's candidates whose
// every Ledger fits the budget, the one Summed prices cheapest. The Decisions
// carry only the split; Charge prices it again for any reader.
func (p *Planner) DecideAll(mode Mode) ([]*Decision, error) {
	cands, err := p.Candidates(mode)
	if err != nil {
		return nil, err
	}
	best, bestCost := []*Decision(nil), 0.0
	for _, cand := range cands {
		leds := make([]Ledger, len(cand.Plan))
		p.perWorker(func(w int) { leds[w] = p.Ledger(w, cand.Plan[w]) })
		if slices.ContainsFunc(leds, func(led Ledger) bool { return cand.Budget > 0 && led.Bytes > cand.Budget }) {
			continue
		}
		if total := p.Summed(leds); best == nil || total < bestCost {
			best, bestCost = cand.Plan, total
		}
	}
	if best == nil {
		// Unreachable: pure communication stores no replicas and always fits.
		return nil, fmt.Errorf("hybrid: no feasible plan under budget %d", p.MemBudget)
	}
	return best, nil
}

// candidates generates one Candidates call's plans. Dependency lists
// and the greedy plan are shared read-only between the candidates built on
// them; every candidate has its own Decision structs.
type candidates struct {
	p          *Planner
	deps       [][]int32   // per-worker remote dependency sets
	greedyPlan []*Decision // memoised Algorithm 4 plan
}

// perWorker runs fn for every worker in parallel (the paper executes
// Algorithm 4's cost evaluation in parallel, §5.2).
func (p *Planner) perWorker(fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < p.Part.NumParts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// newPlan returns a plan of empty Decisions.
func (c *candidates) newPlan() []*Decision {
	L := c.p.numLayers()
	plan := make([]*Decision, len(c.deps))
	for w := range plan {
		plan[w] = &Decision{R: make([][]int32, L), C: make([][]int32, L), TP: make([]bool, L), Rep: make([]bool, L)}
	}
	return plan
}

func (c *candidates) comm() [][]*Decision {
	plan := c.newPlan()
	for w, d := range plan {
		for l := range d.C {
			d.C[l] = c.deps[w]
		}
	}
	return [][]*Decision{plan}
}

func (c *candidates) cache() [][]*Decision {
	plan := c.newPlan()
	for w, d := range plan {
		for l := range d.R {
			d.R[l] = c.deps[w]
		}
	}
	return [][]*Decision{plan}
}

// runGreedy runs Algorithm 4 (ratio < 0) or the fixed-ratio sweep per worker.
func (c *candidates) runGreedy(ratio float64) []*Decision {
	plan := c.newPlan()
	c.p.perWorker(func(w int) { c.p.greedy(w, c.deps[w], plan[w], ratio) })
	return plan
}

func (c *candidates) greedy() [][]*Decision {
	if c.greedyPlan == nil {
		c.greedyPlan = c.runGreedy(-1)
	}
	return [][]*Decision{c.greedyPlan}
}

func (c *candidates) ratio() [][]*Decision { return [][]*Decision{c.runGreedy(c.p.Ratio)} }

// suffix derives the plan with layers t..L tensor-parallel (no per-vertex
// sets) or replicated (the full dependency set cached), and the greedy split
// below t.
func (c *candidates) suffix(t int, rep bool) []*Decision {
	var base []*Decision
	if t > 1 {
		base = c.greedy()[0]
	}
	plan := c.newPlan()
	for w, d := range plan {
		for l := 1; l < t; l++ {
			d.R[l-1], d.C[l-1] = base[w].R[l-1], base[w].C[l-1]
		}
		for l := t; l <= len(d.R); l++ {
			if rep {
				d.R[l-1], d.Rep[l-1] = c.deps[w], true
			} else {
				d.TP[l-1] = true
			}
		}
	}
	return plan
}

// tpSuffixes lists the tensor-parallel suffix plans shallowest first; none
// without SliceTP, where a TP layer fetches whole blocks, at least the rows
// pure communication fetches (experiments.TestWholeBlockTPNeverWins).
func (c *candidates) tpSuffixes() [][]*Decision {
	if !c.p.SliceTP {
		return nil
	}
	var out [][]*Decision
	for t := c.p.numLayers(); t >= 1; t-- {
		out = append(out, c.suffix(t, false))
	}
	return out
}

func (c *candidates) allTP() [][]*Decision  { return [][]*Decision{c.suffix(1, false)} }
func (c *candidates) allRep() [][]*Decision { return [][]*Decision{c.suffix(1, true)} }

// repSuffixes is the one replicated candidate (see competing).
func (c *candidates) repSuffixes() [][]*Decision {
	return [][]*Decision{c.suffix(c.p.numLayers(), true)}
}

// dependencies returns worker i's remote dependency set D_i: the distinct
// non-owned sources of in-edges of owned vertices, ascending.
func (p *Planner) dependencies(i int) []int32 {
	seen := make(map[int32]struct{})
	for _, v := range p.Part.Parts[i] {
		for _, u := range p.Graph.InNeighbors(v) {
			if p.Part.Assign[u] != int32(i) {
				seen[u] = struct{}{}
			}
		}
	}
	return graph.SortedKeys(seen)
}

// depItem is a priority-queue entry ⟨u, t_r^l(u)⟩.
type depItem struct {
	u  int32
	tr float64
}

type depHeap []depItem

func (h depHeap) Len() int            { return len(h) }
func (h depHeap) Less(i, j int) bool  { return h[i].tr < h[j].tr }
func (h depHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x interface{}) { *h = append(*h, x.(depItem)) }
func (h *depHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// greedy is Algorithm 4. When ratio >= 0 the cost comparison on line 11 is
// replaced by a per-layer quota (cache the `ratio` fraction with the
// smallest t_r), which is how Figure 11 forces intermediate mixes.
//
// V_rep is the worker's Closure, grown as dependencies are cached. A move
// caches u for layer l in it, and t_r^l(u) is the Ledger's replica-compute
// delta over the replicas that move lifts: only levels not yet held are
// charged, so later dependencies whose subtrees overlap cost less, and level
// 0 (features) is storage only, which is why layer-1 dependencies always
// cost nothing. A move not taken is undone.
//
// greedy fills only d.R and d.C; its running byte count exists to enforce
// MemBudget, and the plan's price comes from Charge like every plan's.
func (p *Planner) greedy(worker int, deps []int32, d *Decision, ratio float64) {
	L := p.numLayers()
	vrep := NewClosure(p.Graph, p.Part, worker)
	delta := make([]Work, L)

	var cacheBytes int64
	for l := 1; l <= L; l++ {
		tc := p.Costs.CommCost(int64(p.Dims[l-1]))
		h := make(depHeap, 0, len(deps))
		for _, u := range deps {
			raised := vrep.Add(u, l-1)
			tr, _ := p.moveCost(raised, delta)
			vrep.Undo(raised)
			h = append(h, depItem{u: u, tr: tr})
		}
		heap.Init(&h)
		quota := len(deps)
		if ratio >= 0 {
			quota = int(ratio * float64(len(deps)))
		}
		cached := make(map[int32]struct{})
		overBudget := false
		for h.Len() > 0 && len(cached) < quota {
			item := heap.Pop(&h).(depItem)
			// Re-measure excluding the V_rep accumulated meanwhile (line 10).
			raised := vrep.Add(item.u, l-1)
			tr, bytes := p.moveCost(raised, delta)
			if ratio < 0 && tr >= tc {
				vrep.Undo(raised)
				continue
			}
			if p.MemBudget > 0 && cacheBytes+bytes > p.MemBudget {
				// Line 14-15: memory exceeded — drop u and stop caching.
				overBudget = true
				break
			}
			cacheBytes += bytes
			cached[item.u] = struct{}{}
		}
		d.R[l-1] = graph.SortedKeys(cached)
		d.C[l-1] = subtract(deps, cached)
		if overBudget {
			// Remaining layers communicate everything.
			for k := l; k < L; k++ {
				d.R[k] = nil
				d.C[k] = deps
			}
			return
		}
	}
}

// moveCost prices the lifts one Closure.Add reported: the Ledger's
// replica-compute delta over them, counted into the scratch delta, and the
// bytes they add at full float32 width (compression 1), where the price is
// integer arithmetic and differences of it are exact.
func (p *Planner) moveCost(raised []Raise, delta []Work) (tr float64, bytes int64) {
	stored := func(v int32, lvl int) int64 {
		if lvl < 0 {
			return 0
		}
		return costmodel.RepReplicaBytes(p.Dims, lvl, p.Graph.InDegree(v), 1)
	}
	clear(delta)
	for _, r := range raised {
		p.lift(delta, r.V, r.From, r.To)
		bytes += stored(r.V, r.To) - stored(r.V, r.From)
	}
	return p.replicaCost(delta), bytes
}

func subtract(all []int32, drop map[int32]struct{}) []int32 {
	out := make([]int32, 0, len(all)-len(drop))
	for _, v := range all {
		if _, ok := drop[v]; !ok {
			out = append(out, v)
		}
	}
	return out
}
