package serve

import (
	"time"

	"neutronstar/internal/autograd"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

// compute runs an assembled plan bottom-up on the worker's private model
// replica: each block's input matrix is stitched from raw features, cached
// rows and the previous block's output, then one layer forward produces the
// rows the block above consumes. Freshly computed hidden rows for real
// vertices are offered to the cache, and so are the final rows admit picks.
// Per-item result rows are sliced out of the top block at the end and each
// waiting request is released.
//
// Every intermediate (block inputs, layer outputs) is drawn from the
// worker's scratch arena, which the caller releases when compute returns;
// only the per-request Result rows and the cache's own copies outlive it.
func (s *Server) compute(asm *assembled, model *nn.Model, scratch *tensor.Arena) {
	p := asm.plan
	dims := model.Dims()
	L := len(p.blocks)
	n := int32(s.cfg.Graph.NumVertices())

	var prevOut *tensor.Tensor
	var topIn *tensor.Tensor // the top block's input: penultimate-layer rows
	for l, b := range p.blocks {
		// The bottom block reads the assembled feature rows as they are
		// (nothing is cached below layer 1); the blocks above stitch theirs.
		H := p.feats
		if l > 0 {
			H = stitch(b, prevOut, scratch, dims[l])
		}
		if l == L-1 {
			topIn = H
		}
		if len(b.dsts) == 0 {
			// The walk above was fully cache-served; nothing to compute here.
			prevOut = nil
			continue
		}
		prevOut = forwardBlock(model.Layers[l], b, H, scratch)
		if asm.exact && l+1 < L {
			s.cache.putMany(l+1, b.dsts, n, prevOut, nil, asm.gen)
		}
	}
	s.admit(asm, prevOut, n)

	// A block's destinations lead its input rows, so top destination d's
	// embedding is the top input's row d.
	for i, w := range asm.items {
		rows := p.rows[i]
		logits := tensor.New(len(rows), dims[L])
		embeds := tensor.New(len(rows), dims[L-1])
		for r, d := range rows {
			copy(logits.Row(r), prevOut.Row(int(d)))
			copy(embeds.Row(r), topIn.Row(int(d)))
		}
		w.res = &Result{Version: asm.version, Logits: logits, Embeds: embeds}
		w.finished = time.Now()
		close(w.done)
	}
}

// admit offers an exact job's final rows to the cache with their JSON text,
// for the top destinations whose penultimate row the job read from the cache
// (a one-layer model's are the features, always at hand). putMany admits a
// row on its vertex's second query; a row JSON cannot carry never enters.
func (s *Server) admit(asm *assembled, logits *tensor.Tensor, n int32) {
	L := len(asm.plan.blocks)
	top := asm.plan.blocks[L-1]
	if !asm.exact {
		return
	}
	s.cache.putMany(L, top.dsts, n, logits, func(d int) []byte {
		if L == 1 || top.cached != nil && top.cached[d] != nil {
			if text, err := appendRow(nil, "logits", d, logits.Row(d)); err == nil {
				return text
			}
		}
		return nil
	}, asm.gen)
}

// stitch assembles block b's input rows: the cache-served row where the walk
// stopped, otherwise the next row of prev, the block below's output — whose
// destinations are b's uncached sources in order. With nothing cache-served
// the input is prev itself.
func stitch(b *block, prev *tensor.Tensor, scratch *tensor.Arena, dim int) *tensor.Tensor {
	if b.cached == nil {
		return prev
	}
	H := scratch.Get(len(b.srcs), dim)
	k := 0
	for i, row := range b.cached {
		if row == nil {
			row = prev.Row(k)
			k++
		}
		copy(H.Row(i), row)
	}
	return H
}

// forwardBlock evaluates one layer over one bipartite block. The ForwardCtx
// mirrors engine.forwardOnTape restricted to the block: SrcRow indexes the
// (possibly pre-transformed) source rows in destination-grouped order and
// Self is their leading rows, the destinations' own, so per-destination
// float32 aggregation order — and therefore the result — matches the
// full-graph reference bitwise.
func forwardBlock(layer nn.Layer, b *block, H *tensor.Tensor, scratch *tensor.Arena) *tensor.Tensor {
	tape := autograd.NewTapeArena(scratch)
	in := tape.Constant(H, "h")
	rng := tensor.NewRNG(0)
	rows := in
	if pt, ok := layer.(nn.PreTransformer); ok {
		rows = pt.PreTransform(tape, in, false, rng)
	}
	ctx := &nn.ForwardCtx{
		Tape:     tape,
		Src:      rows,
		SrcRow:   b.srcIdx,
		Self:     tape.Constant(rows.Value.RowSlice(0, len(b.dsts)), "self"),
		Offsets:  b.offsets,
		EdgeDst:  b.dstIdx,
		EdgeNorm: b.edgeNorm,
		SelfNorm: b.selfNorm,
		Training: false,
		RNG:      rng,
	}
	out := layer.Forward(ctx)
	// Detach parameters bound during inference (tape binding is stateful).
	for _, p := range layer.Params() {
		p.CollectGrad()
	}
	return out.Value
}
