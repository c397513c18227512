// Package engine executes distributed GNN training. It implements the
// paper's unified pipeline (Fig. 6): every layer runs GetFromDepNbr →
// ScatterToEdge → EdgeForward → GatherByDst → VertexForward, with the
// backward duals generated automatically by the autograd tape, and the
// cross-worker boundary handled by master–mirror messages
// (synchronize-compute forward, compute-synchronize backward, Fig. 7).
//
// Every policy in the table (policies, engine.go) shares this single
// implementation; they differ only in the hybrid.Decision that assigns each
// remote dependency to replication or communication and each layer to a
// dataflow. The plan in this file turns a Decision into the static per-worker
// execution structures: which non-owned vertices are redundantly computed at
// each layer, which rows are exchanged with which peer, the index arrays the
// gather/scatter ops use, and the dataflow each layer runs.
package engine

import (
	"fmt"

	"neutronstar/internal/graph"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/partition"
)

// blockPlan holds the edge-level index arrays for one destination block of
// one layer (the owned block or the cached block).
type blockPlan struct {
	// dsts are the global ids of the block's destination vertices, in output
	// row order.
	dsts []int32
	// srcRow[e] is the HAll row of edge e's source; edges are grouped by
	// destination (CSC order over the block).
	srcRow []int32
	// dstRow[e] is the output row of edge e's destination within the block.
	dstRow []int32
	// offsets delimits each destination's edge group (len(dsts)+1).
	offsets []int32
	// selfRow[r] is the prev-rows index of destination r itself.
	selfRow []int32
	// edgeNorm / selfNorm are GCN normalisation coefficients.
	edgeNorm []float32
	selfNorm []float32
}

func (b *blockPlan) numDst() int { return len(b.dsts) }

// chunkGroup is the owned block's edge subset whose sources live in one
// region: the local prev rows (peer == -1) or one peer's received chunk.
// srcLocal indexes within that region's own row space, so each group can
// gather directly from its chunk leaf — the basis of §4.3's incremental
// per-chunk aggregation.
type chunkGroup struct {
	peer     int
	srcLocal []int32
	dstRow   []int32
	edgeNorm []float32
}

// layerPlan is the per-layer execution structure of one worker.
type layerPlan struct {
	// flow is the layer's dataflow, chosen here and nowhere else: the epoch
	// loop and worker construction only call it. Under the slice flow the
	// master–mirror structures below stay empty, so the send/recv wiring
	// no-ops.
	flow dataflow
	// recv[j] lists vertices received from peer j this layer (ascending);
	// empty for j == self and peers with nothing to send. Under Broadcast it
	// is peer j's whole owned list wherever it is not empty, and on a
	// tensor-parallel layer without the slice flow it is for every peer.
	recv [][]int32
	// held[j] lists peer j's vertices (ascending) whose rows this layer reads
	// from the block its dataflow bound at construction instead of the wire.
	// A master–mirror layer's communicated dependencies are one or the other:
	// held at layer 1, whose input rows are static features, received above it.
	held [][]int32
	// recvOffset[j] is the starting HAll row of peer j's chunk, received or
	// held.
	recvOffset []int32
	// send[j] lists owned vertices whose rows are sent to peer j; sendRow[j]
	// is their rows in the owned block, which leads every layout — the plan
	// owns positions, so nothing on the epoch path looks a vertex up. sends
	// says whether any send[j] has a row.
	send    [][]int32
	sendRow [][]int32
	sends   bool
	// owned is the block of destinations this worker owns; cached is the
	// block of replicated destinations whose layer output is recomputed
	// locally (the DepCache portion of the hybrid split).
	owned  blockPlan
	cached blockPlan
	// numPrevRows = |owned| + |cachedCompute[l-1]|: the rows carried over
	// from the previous layer's output (or the feature assembly for l=1).
	numPrevRows int
	// numHAllRows = numPrevRows + total received or held rows.
	numHAllRows int
	// ownedGroups re-expresses the owned block's edges grouped by source
	// region for chunk-pipelined aggregation: the local group first, then one
	// per peer with a used chunk. groupOf[j] is peer j's (nil when no owned
	// edge reads its chunk).
	ownedGroups []chunkGroup
	groupOf     []*chunkGroup
}

// workerPlan is the full static execution plan of one worker.
type workerPlan struct {
	id    int
	owned []int32
	// cachedCompute[k], k=0..L-1: non-owned vertices whose h^(k) this worker
	// computes redundantly (k>=1), or whose features it caches (k=0).
	cachedCompute [][]int32
	layers        []layerPlan
	// cacheBytes is the replica storage implied by cachedCompute (for
	// reporting against the Decision estimate).
	cacheBytes int64
	// heldBytes is the storage of layer 1's held rows. It is reported with
	// cacheBytes but never charged to MemBudget: no decision the planner can
	// take avoids holding a worker's own layer-1 inputs, exactly as the
	// tensor-parallel feature slices are unbudgeted.
	heldBytes int64
}

// buildPlans derives all workers' execution plans from the dependency
// decisions under p. p.SliceTP says the model's layers are
// nn.SumDecomposable: a master–mirror layer 1 then binds its Combine output
// at construction (masterMirror.bindFeatures), and any TP layers in the
// decisions run the column-sliced dataflow; without it a TP layer reads
// every peer's whole owned block over the master–mirror exchange. broadcast
// is ROC's send set (Options.Broadcast): above layer 1 a peer that sends any
// row sends its whole owned block.
func buildPlans(p *hybrid.Planner, decs []*hybrid.Decision, broadcast bool) ([]*workerPlan, error) {
	g, part, dims := p.Graph, p.Part, p.Dims
	m := part.NumParts
	L := len(dims) - 1
	if len(decs) != m {
		return nil, fmt.Errorf("engine: %d decisions for %d workers", len(decs), m)
	}
	var norm gcnNorm
	norm.edge, norm.self = graph.GCNNormCoefficients(g)

	// The slice dataflow's geometry is cluster-global and identical across
	// workers, so it is built once and shared read-only.
	var shared *tpShared
	for _, d := range decs {
		if p.SliceTP && d.NumTP() > 0 {
			var err error
			if shared, err = buildTPShared(g, part, norm); err != nil {
				return nil, err
			}
			break
		}
	}

	plans := make([]*workerPlan, m)
	for i := 0; i < m; i++ {
		wp, err := buildWorkerPlan(g, part, decs[i], dims, i, norm, shared, broadcast)
		if err != nil {
			return nil, err
		}
		plans[i] = wp
	}

	// Wire send lists: worker i sends to j at layer l exactly what j's plan
	// receives from i, from the rows of its owned block they sit in.
	for i := 0; i < m; i++ {
		for l := 0; l < L; l++ {
			lp := &plans[i].layers[l]
			lp.send, lp.sendRow = make([][]int32, m), make([][]int32, m)
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				lp.send[j] = plans[j].layers[l].recv[i]
				lp.sendRow[j] = positionsIn(plans[i].owned, lp.send[j])
				lp.sends = lp.sends || len(lp.send[j]) > 0
			}
		}
	}
	return plans, nil
}

// positionsIn returns the position in list of every element of sub; both are
// ascending and sub is drawn from list.
func positionsIn(list, sub []int32) []int32 {
	pos := make([]int32, len(sub))
	r := 0
	for k, v := range sub {
		for list[r] != v {
			r++
		}
		pos[k] = int32(r)
	}
	return pos
}

// buildWorkerPlan derives worker i's plan from its dependency decision.
func buildWorkerPlan(g *graph.Graph, part *partition.Partition, dec *hybrid.Decision,
	dims []int, i int, norm gcnNorm, shared *tpShared, broadcast bool) (*workerPlan, error) {

	L := len(dims) - 1
	owned := part.Parts[i]

	// Tensor-parallel layers must form a suffix: a TP layer's input is
	// exactly the owned rows, which a regular layer above it (whose cached
	// dependencies would widen the output below) cannot guarantee. The 3-way
	// planner only emits suffixes; reject anything else before it produces a
	// silently wrong plan.
	for l := 1; l < L; l++ {
		if dec.TPAt(l) && !dec.TPAt(l+1) {
			return nil, fmt.Errorf("engine: worker %d: tensor-parallel layers must form a suffix (layer %d TP under regular layer %d)", i, l, l+1)
		}
	}

	// 1. The cached blocks are the levels of the Decision's closure — the
	// walk the planner priced (hybrid.Closure owns the expansion rule).
	held := hybrid.ClosureOf(g, part, i, dec)
	p := &workerPlan{id: i, owned: owned, cachedCompute: make([][]int32, L)}
	for k := 0; k < L; k++ {
		p.cachedCompute[k] = held.At(k)
		p.cacheBytes += int64(len(p.cachedCompute[k])) * int64(4*dims[k])
	}

	// 2. prevIndex[k] maps a global vertex id to its row in the level-k layout
	// (owned ++ cachedCompute[k]); only vertices in the layout appear. The
	// maps resolve the index arrays below and die with this call.
	prevIndex := make([]map[int32]int32, L)
	for k := 0; k < L; k++ {
		idx := make(map[int32]int32, len(owned)+len(p.cachedCompute[k]))
		for r, v := range owned {
			idx[v] = int32(r)
		}
		for r, v := range p.cachedCompute[k] {
			idx[v] = int32(len(owned) + r)
		}
		prevIndex[k] = idx
	}

	// 3. Per-layer recv chunks and edge index arrays.
	p.layers = make([]layerPlan, L)
	for l := 1; l <= L; l++ {
		lp := &p.layers[l-1]
		if dec.TPAt(l) && len(p.cachedCompute[l-1]) != 0 {
			return nil, fmt.Errorf("engine: worker %d layer %d: tensor-parallel input widened by %d replicas at level %d", i, l, len(p.cachedCompute[l-1]), l-1)
		}
		if dec.TPAt(l) && shared != nil {
			// Slice dataflow: no per-vertex exchange, no cached block.
			lp.recv = make([][]int32, part.NumParts)
			lp.recvOffset = make([]int32, part.NumParts)
			lp.numPrevRows = len(owned)
			lp.numHAllRows = len(owned)
			lp.flow = buildTPLayer(shared, dims, l, i)
			continue
		}
		lp.numPrevRows = len(owned) + len(p.cachedCompute[l-1])

		// Communicated dependencies still missing locally at this layer.
		recvByPeer := make([]map[int32]struct{}, part.NumParts)
		for _, u := range dec.C[l-1] {
			if held.Holds(u, l-1) {
				continue // replicated by another layer's subtree
			}
			o := part.Assign[u]
			if recvByPeer[o] == nil {
				recvByPeer[o] = make(map[int32]struct{})
			}
			recvByPeer[o][u] = struct{}{}
		}
		chunks := make([][]int32, part.NumParts)
		lp.recvOffset = make([]int32, part.NumParts)
		off := int32(lp.numPrevRows)
		for j := 0; j < part.NumParts; j++ {
			chunks[j] = graph.SortedKeys(recvByPeer[j])
			// A TP layer without the slice dataflow reads every peer's whole
			// block; ROC's broadcast widens every used chunk to one above
			// layer 1.
			if (dec.TPAt(l) && j != i) || (broadcast && l > 1 && len(chunks[j]) > 0) {
				chunks[j] = part.Parts[j]
			}
			lp.recvOffset[j] = off
			off += int32(len(chunks[j]))
		}
		lp.numHAllRows = int(off)
		// Static inputs move once: layer 1 reads features, which never change,
		// so its chunks are held from construction and its wire lists stay
		// empty — nothing is sent, awaited or posted back for them.
		none := make([][]int32, part.NumParts)
		lp.recv, lp.held = chunks, none
		if l == 1 {
			lp.recv, lp.held = none, chunks
		}

		// Row resolver for edge sources in HAll.
		recvIndex := make(map[int32]int32)
		for j := 0; j < part.NumParts; j++ {
			for r, v := range chunks[j] {
				recvIndex[v] = lp.recvOffset[j] + int32(r)
			}
		}
		resolve := func(u int32) (int32, error) {
			if r, ok := prevIndex[l-1][u]; ok {
				return r, nil
			}
			if r, ok := recvIndex[u]; ok {
				return r, nil
			}
			return 0, fmt.Errorf("engine: worker %d layer %d: source %d unavailable", i, l, u)
		}

		prevRow := func(v int32) (int32, error) {
			if r, ok := prevIndex[l-1][v]; ok {
				return r, nil
			}
			return 0, fmt.Errorf("engine: destination %d has no previous-layer row", v)
		}

		var err error
		lp.owned, err = buildBlock(g, owned, resolve, prevRow, norm)
		if err != nil {
			return nil, err
		}
		lp.cached, err = buildBlock(g, p.cachedComputeAt(l), resolve, prevRow, norm)
		if err != nil {
			return nil, err
		}
		lp.ownedGroups, lp.groupOf = buildChunkGroups(lp, chunks)
		lp.flow = &masterMirror{}
		for _, verts := range lp.held {
			p.heldBytes += int64(len(verts)) * int64(4*dims[l-1])
		}
	}
	return p, nil
}

// buildChunkGroups splits the owned block's edges by source region: the local
// prev rows, or peer j's chunk of len(chunks[j]) rows at recvOffset[j]. It
// returns the groups, local first, and the per-peer index into them.
func buildChunkGroups(lp *layerPlan, chunks [][]int32) ([]chunkGroup, []*chunkGroup) {
	numPeers := len(chunks)
	local := chunkGroup{peer: -1}
	byPeer := make(map[int]*chunkGroup)
	peerOf := func(row int32) int {
		for j := numPeers - 1; j >= 0; j-- {
			if len(chunks[j]) > 0 && row >= lp.recvOffset[j] {
				if row < lp.recvOffset[j]+int32(len(chunks[j])) {
					return j
				}
			}
		}
		return -1
	}
	for e, sr := range lp.owned.srcRow {
		if int(sr) < lp.numPrevRows {
			local.srcLocal = append(local.srcLocal, sr)
			local.dstRow = append(local.dstRow, lp.owned.dstRow[e])
			local.edgeNorm = append(local.edgeNorm, lp.owned.edgeNorm[e])
			continue
		}
		j := peerOf(sr)
		gp := byPeer[j]
		if gp == nil {
			gp = &chunkGroup{peer: j}
			byPeer[j] = gp
		}
		gp.srcLocal = append(gp.srcLocal, sr-lp.recvOffset[j])
		gp.dstRow = append(gp.dstRow, lp.owned.dstRow[e])
		gp.edgeNorm = append(gp.edgeNorm, lp.owned.edgeNorm[e])
	}
	groups := []chunkGroup{local}
	for j := 0; j < numPeers; j++ {
		if gp := byPeer[j]; gp != nil {
			groups = append(groups, *gp)
		}
	}
	groupOf := make([]*chunkGroup, numPeers)
	for gi := 1; gi < len(groups); gi++ {
		groupOf[groups[gi].peer] = &groups[gi]
	}
	return groups, groupOf
}

// cachedComputeAt returns the cached set for level k, where level L is
// always empty (no one consumes h^(L) of a replica).
func (p *workerPlan) cachedComputeAt(k int) []int32 {
	if k >= len(p.cachedCompute) {
		return nil
	}
	return p.cachedCompute[k]
}

// gcnNorm is graph.GCNNormCoefficients' table: edge coefficients by CSC
// position, self coefficients by vertex.
type gcnNorm struct{ edge, self []float32 }

// buildBlock assembles the edge arrays for one destination block. srcRow maps
// an edge source, selfRow a destination's own previous-layer copy, to its row
// in the block's input universe.
func buildBlock(g *graph.Graph, dsts []int32, srcRow, selfRow func(int32) (int32, error),
	norm gcnNorm) (blockPlan, error) {

	off := g.InOffsets()
	b := blockPlan{dsts: dsts, offsets: make([]int32, len(dsts)+1)}
	b.selfRow = make([]int32, len(dsts))
	b.selfNorm = make([]float32, len(dsts))
	for r, v := range dsts {
		sr, err := selfRow(v)
		if err != nil {
			return b, err
		}
		b.selfRow[r] = sr
		b.selfNorm[r] = norm.self[v]
		for k, u := range g.InNeighbors(v) {
			row, err := srcRow(u)
			if err != nil {
				return b, err
			}
			b.srcRow = append(b.srcRow, row)
			b.dstRow = append(b.dstRow, int32(r))
			b.edgeNorm = append(b.edgeNorm, norm.edge[off[v]+int64(k)])
		}
		b.offsets[r+1] = int32(len(b.srcRow))
	}
	return b, nil
}
