package serve

import (
	"fmt"
	"math"
	"slices"
	"time"

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

// invSqrtDeg matches graph.GCNNormCoefficients' float64 intermediate exactly
// so served GCN rows are bit-identical to the full-graph reference.
func (o *overlay) invSqrtDeg(v int32) float64 {
	return 1 / math.Sqrt(float64(o.inDeg(v)+1))
}

// block is one layer of an extraction plan: destinations aggregate from
// their (possibly sampled) in-neighbors, exactly the bipartite shape of
// sampler.Block but carrying everything the compute pool needs — norm
// coefficients from full-graph degrees and any cache-served input rows.
type block struct {
	srcs []int32 // input frontier, ascending
	dsts []int32 // output frontier, ascending, subset of srcs
	// srcIdx/dstIdx address edges into srcs/dsts; edges are grouped by
	// destination in in-neighbor order (the reference aggregation order, so
	// float32 sums match it bitwise).
	srcIdx, dstIdx []int32
	offsets        []int32 // len(dsts)+1
	selfIdx        []int32 // row of dsts[d] within srcs
	// edgeNorm/selfNorm are the GCN renormalisation coefficients computed
	// from full-graph in-degrees (a sampled block keeps true degrees: the
	// norm describes the graph, not the sample).
	edgeNorm, selfNorm []float32
	// cached[i], when non-nil, is srcs[i]'s input row served from the
	// embedding cache; the frontier below was not expanded through it.
	cached [][]float32
}

// plan is a full extraction: blocks input-first (blocks[0] consumes raw
// feature rows, blocks[L-1] produces the queried vertices' logits) plus the
// assembled layer-0 feature rows.
type plan struct {
	blocks []*block
	feats  *tensor.Tensor // one row per blocks[0].srcs entry
}

// seeds returns the queried frontier (the top block's destinations).
func (p *plan) seeds() []int32 { return p.blocks[len(p.blocks)-1].dsts }

// extract builds the assembled job: the k-hop (or fanout-sampled) dependency
// walk for every queried vertex, stopping at cache-served rows, plus the
// feature rows the bottom layer needs. Pure graph-and-memory work — the
// point of a separate extraction pool is that none of this contends with
// the GEMMs in the compute pool.
func (s *Server) extract(j *job, model *nn.Model, version uint64) (*assembled, error) {
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
	// cacheNanos carves the embedding-cache lookup time out of the extract
	// stage for the per-request breakdown.
	var cacheNanos int64

	// Merge every item's queried vertices into one sorted seed frontier.
	var need []int32
	for _, w := range j.items {
		need = append(need, w.req.Verts...)
		for k := range w.req.Inductive {
			need = append(need, o.n+int32(k))
		}
	}
	need = sortedSet(need)

	gen := s.cache.generation()
	blocks := make([]*block, L)
	for l := L - 1; l >= 0; l-- {
		b := &block{dsts: need}
		nbrs := make([][]int32, len(need))
		edges := 0
		for di, v := range need {
			ns := o.inNbrs(v)
			if fanouts != nil {
				ns = sampler.Pick(ns, fanouts[l], rng)
			}
			nbrs[di] = ns
			edges += len(ns)
		}
		// The input frontier: every destination's own row plus its neighbors.
		srcs := make([]int32, 0, len(need)+edges)
		srcs = append(srcs, need...)
		for _, ns := range nbrs {
			srcs = append(srcs, ns...)
		}
		b.srcs = sortedSet(srcs)
		b.offsets = make([]int32, len(need)+1)
		b.selfIdx = make([]int32, len(need))
		b.selfNorm = make([]float32, len(need))
		b.srcIdx = make([]int32, 0, edges)
		b.dstIdx = make([]int32, 0, edges)
		b.edgeNorm = make([]float32, 0, edges)
		for di, v := range need {
			b.selfIdx[di] = int32(posIn(b.srcs, v))
			inv := o.invSqrtDeg(v)
			b.selfNorm[di] = float32(inv * inv)
			for _, u := range nbrs[di] {
				b.srcIdx = append(b.srcIdx, int32(posIn(b.srcs, u)))
				b.dstIdx = append(b.dstIdx, int32(di))
				b.edgeNorm = append(b.edgeNorm, float32(inv*o.invSqrtDeg(u)))
			}
			b.offsets[di+1] = int32(len(b.srcIdx))
		}
		blocks[l] = b
		if l == 0 {
			break // layer-0 inputs are raw features — always available
		}
		// Sources whose layer-l row the cache holds are not expanded below.
		b.cached = make([][]float32, len(b.srcs))
		next := make([]int32, 0, len(b.srcs))
		if exact {
			lookupStart := time.Now()
			for i, v := range b.srcs {
				if v < o.n {
					if row := s.cache.Get(l, v); row != nil {
						b.cached[i] = row
						continue
					}
				}
				next = append(next, v)
			}
			cacheNanos += time.Since(lookupStart).Nanoseconds()
		} else {
			next = append(next, b.srcs...)
		}
		need = next
	}

	// Assemble the raw feature rows the bottom block consumes. When every
	// layer-1 input was cache-served the bottom frontier is empty and this
	// is a 0-row tensor. The compute worker hands it back to the pool.
	dim := s.cfg.Features.Cols()
	bottom := blocks[0]
	feats := s.scratch.Get(len(bottom.srcs), dim)
	// A fully cache-satisfied walk leaves empty lower frontiers: their
	// blocks compute nothing, and the cached rows enter at the layer above.
	if len(bottom.dsts) > 0 {
		for i, v := range bottom.srcs {
			copy(feats.Row(i), o.featRow(v))
		}
	}

	return &assembled{
		items:      j.items,
		version:    version,
		cacheNanos: cacheNanos,
		model:      model,
		gen:        gen,
		plan:       &plan{blocks: blocks, feats: feats},
		exact:      exact,
	}, nil
}

// sortedSet sorts vs in place and drops duplicates.
func sortedSet(vs []int32) []int32 {
	slices.Sort(vs)
	return slices.Compact(vs)
}

// posIn locates v in the ascending slice s; extraction guarantees presence.
func posIn(s []int32, v int32) int {
	i, _ := slices.BinarySearch(s, v)
	return i
}
