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
// vertices are offered to the cache (final-layer logits are not — no block
// ever reads them back). Per-item result rows are sliced out of the top
// block at the end and each waiting request is released.
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
	var prevDsts []int32
	var topIn *tensor.Tensor // the top block's input: penultimate-layer rows
	for l, b := range p.blocks {
		// The bottom block reads the assembled feature rows as they are
		// (nothing is cached below layer 1); the blocks above stitch theirs.
		H := p.feats
		if l > 0 {
			H = scratch.Get(len(b.srcs), dims[l])
			for i, v := range b.srcs {
				if b.cached[i] != nil {
					copy(H.Row(i), b.cached[i])
				} else {
					copy(H.Row(i), prevOut.Row(posIn(prevDsts, v)))
				}
			}
		}
		if l == L-1 {
			topIn = H
		}
		if len(b.dsts) == 0 {
			// The walk above was fully cache-served; nothing to compute here.
			prevOut, prevDsts = tensor.New(0, dims[l+1]), b.dsts
			continue
		}
		out := forwardBlock(model.Layers[l], b, H, scratch)
		if asm.exact && l+1 < L {
			for d, v := range b.dsts {
				if v < n {
					s.cache.Put(l+1, v, out.Row(d), asm.gen)
				}
			}
		}
		prevOut, prevDsts = out, b.dsts
	}

	top := p.blocks[L-1]
	for _, w := range asm.items {
		nq := w.req.numQueries()
		logits := tensor.New(nq, dims[L])
		embeds := tensor.New(nq, dims[L-1])
		row := 0
		emit := func(v int32) {
			d := posIn(top.dsts, v)
			copy(logits.Row(row), prevOut.Row(d))
			copy(embeds.Row(row), topIn.Row(int(top.selfIdx[d])))
			row++
		}
		for _, v := range w.req.Verts {
			emit(v)
		}
		for k := range w.req.Inductive {
			emit(n + int32(k))
		}
		w.res = &Result{Version: asm.version, Logits: logits, Embeds: embeds}
		w.finished = time.Now()
		close(w.done)
	}
}

// forwardBlock evaluates one layer over one bipartite block. The ForwardCtx
// mirrors engine.forwardOnTape restricted to the block: SrcRow indexes the
// (possibly pre-transformed) source rows in destination-grouped order and
// Self gathers each destination's own row, so per-destination float32
// aggregation order — and therefore the result — matches the full-graph
// reference bitwise.
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
		Self:     tape.Gather(rows, b.selfIdx),
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
