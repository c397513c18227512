package serve

import (
	"fmt"
	"time"

	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/sampler"
	"neutronstar/internal/tensor"
)

// overlay presents the stored graph plus a request's virtual (inductive)
// vertices as one address space: real vertices keep their ids, virtual
// vertex k becomes id NumVertices()+k for the lifetime of the job. Virtual
// vertices only draw edges from real ones, so one hop past a virtual vertex
// the walk is back on the stored graph.
type overlay struct {
	s    *Server
	virt []InductiveVertex
	n    int32
}

func (o *overlay) inNbrs(v int32) []int32 {
	if v >= o.n {
		return o.virt[v-o.n].Neighbors
	}
	return o.s.cfg.Graph.InNeighbors(v)
}

func (o *overlay) inDeg(v int32) int {
	if v >= o.n {
		return len(o.virt[v-o.n].Neighbors)
	}
	return o.s.cfg.Graph.InDegree(v)
}

func (o *overlay) featRow(v int32) []float32 {
	if v >= o.n {
		return o.virt[v-o.n].Features
	}
	return o.s.cfg.Features.Row(int(v))
}

// block is one layer of an extraction plan: destinations aggregate from
// their (possibly sampled) in-neighbors. The embedded graph.Block indexes
// srcs and dsts; its edges are grouped by destination in in-neighbor order
// (the reference aggregation order, so float32 sums match it bitwise), its
// SelfRow is nil (destinations lead srcs) and its GCN coefficients come from
// full-graph in-degrees (a sampled block keeps true degrees: the norm
// describes the graph, not the sample).
type block struct {
	graph.Block
	// srcs is the input frontier: the destinations first, so input row d is
	// dsts[d]'s own row, then every other in-neighbor in the order the walk
	// first meets it. dsts is srcs[:len(dsts)].
	srcs, dsts []int32
	// cached[i], when non-nil, is srcs[i]'s input row served from the
	// embedding cache; the frontier below was not expanded through it. The
	// k-th source without one is the block below's k-th destination. Nil
	// when no source was cache-served.
	cached [][]float32
}

// plan is a full extraction: blocks input-first (blocks[0] consumes raw
// feature rows, blocks[L-1] produces the queried vertices' logits), the
// assembled layer-0 feature rows, and rows[i][q], the top-block destination
// answering item i's q-th query.
type plan struct {
	blocks []*block
	feats  *tensor.Tensor // one row per blocks[0].srcs entry
	rows   [][]int32
}

// walk is an extraction worker's scratch. slot[v] is 1 + v's row in the
// block being built and 0 for every vertex outside it: a block enters its
// destinations, the walk enters each new in-neighbor, and the block clears
// every entry it set once its edges are laid out, so slot is all zeros
// between blocks. frontier holds the next block's destinations.
type walk struct {
	slot     []int32
	frontier []int32
}

// enter appends v to the frontier unless it is already there and returns
// its row.
func (w *walk) enter(v int32) int32 {
	if p := w.slot[v]; p != 0 {
		return p - 1
	}
	w.frontier = append(w.frontier, v)
	w.slot[v] = int32(len(w.frontier))
	return w.slot[v] - 1
}

// expand lays out the block whose destinations are the frontier, already
// entered in slot as rows 0..len-1: one pass over their in-neighbors
// (sampled down to fanout when it is positive) in CSC order.
func (w *walk) expand(o *overlay, fanout int, rng *tensor.RNG) *block {
	dsts := w.frontier
	edges := 0
	for _, v := range dsts {
		d := o.inDeg(v)
		if fanout > 0 && d > fanout {
			d = fanout
		}
		edges += d
	}
	nd := len(dsts)
	b := &block{
		Block: graph.Block{
			SrcRow:   make([]int32, 0, edges),
			EdgeDst:  make([]int32, 0, edges),
			Offsets:  make([]int32, nd+1),
			EdgeNorm: make([]float32, 0, edges),
			SelfNorm: make([]float32, nd),
		},
		srcs: append(make([]int32, 0, nd+edges), dsts...),
	}
	b.dsts = b.srcs[:nd]
	for di, v := range b.dsts {
		d := o.inDeg(v)
		f := graph.GCNFactor(d)
		b.SelfNorm[di] = graph.GCNSelfCoefficient(d)
		ns := o.inNbrs(v)
		if fanout > 0 {
			ns = sampler.Pick(ns, fanout, rng)
		}
		for _, u := range ns {
			p := w.slot[u]
			if p == 0 {
				b.srcs = append(b.srcs, u)
				p = int32(len(b.srcs))
				w.slot[u] = p
			}
			b.SrcRow = append(b.SrcRow, p-1)
			b.EdgeDst = append(b.EdgeDst, int32(di))
			b.EdgeNorm = append(b.EdgeNorm, f*graph.GCNFactor(o.inDeg(u)))
		}
		b.Offsets[di+1] = int32(len(b.SrcRow))
	}
	for _, v := range b.srcs {
		w.slot[v] = 0
	}
	return b
}

// extract builds the assembled job: the k-hop (or fanout-sampled) dependency
// walk for every queried vertex, stopping at cache-served rows, plus the
// feature rows the bottom layer needs. Pure graph-and-memory work — the
// point of a separate extraction pool is that none of this contends with
// the GEMMs in the compute pool. w is the calling worker's scratch.
func (s *Server) extract(j *job, model *nn.Model, version, gen uint64, w *walk) (*assembled, error) {
	L := model.NumLayers()
	var virt []InductiveVertex
	var fanouts []int
	var rng *tensor.RNG
	exact := true
	if len(j.items) == 1 {
		req := j.items[0].req
		virt = req.Inductive
		if len(req.Fanouts) > 0 {
			if len(req.Fanouts) != L {
				return nil, fmt.Errorf("serve: %d fanouts for a %d-layer model", len(req.Fanouts), L)
			}
			fanouts = req.Fanouts
			exact = false
			rng = tensor.NewRNG(j.items[0].seed)
		}
	}
	o := &overlay{s: s, virt: virt, n: int32(s.cfg.Graph.NumVertices())}
	if grow := int(o.n) + len(virt) - len(w.slot); grow > 0 {
		w.slot = append(w.slot, make([]int32, grow)...)
	}
	// cacheNanos carves the embedding-cache lookup time out of the extract
	// stage for the per-request breakdown.
	var cacheNanos int64

	// The top block's destinations: every queried vertex once, in the order
	// the items ask for them.
	nq := 0
	for _, it := range j.items {
		nq += it.req.numQueries()
	}
	flat := make([]int32, 0, nq)
	rows := make([][]int32, len(j.items))
	w.frontier = w.frontier[:0]
	for i, it := range j.items {
		lo := len(flat)
		for _, v := range it.req.Verts {
			flat = append(flat, w.enter(v))
		}
		for k := range it.req.Inductive {
			flat = append(flat, w.enter(o.n+int32(k)))
		}
		rows[i] = flat[lo:]
	}

	blocks := make([]*block, L)
	for l := L - 1; l >= 0; l-- {
		fanout := 0
		if fanouts != nil {
			fanout = fanouts[l]
		}
		b := w.expand(o, fanout, rng)
		blocks[l] = b
		if l == 0 {
			break // layer-0 inputs are raw features — always available
		}
		// Sources whose layer-l row the cache holds are not expanded below.
		if exact && s.cache != nil {
			lookupStart := time.Now()
			b.cached = make([][]float32, len(b.srcs))
			if s.cache.getMany(gen, l, b.srcs, o.n, b.cached) == 0 {
				b.cached = nil
			}
			cacheNanos += time.Since(lookupStart).Nanoseconds()
		}
		w.frontier = w.frontier[:0]
		for i, v := range b.srcs {
			if b.cached == nil || b.cached[i] == nil {
				w.enter(v)
			}
		}
	}

	// Assemble the raw feature rows the bottom block consumes. When every
	// layer-1 input was cache-served the bottom frontier is empty and this
	// is a 0-row tensor. The compute worker hands it back to the pool.
	bottom := blocks[0]
	feats := s.scratch.Get(len(bottom.srcs), s.cfg.Features.Cols())
	for i, v := range bottom.srcs {
		copy(feats.Row(i), o.featRow(v))
	}

	return &assembled{
		items:      j.items,
		version:    version,
		cacheNanos: cacheNanos,
		model:      model,
		gen:        gen,
		plan:       &plan{blocks: blocks, feats: feats, rows: rows},
		exact:      exact,
	}, nil
}
