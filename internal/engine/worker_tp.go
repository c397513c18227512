package engine

import (
	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// Tensor-parallel layer execution: the slice dataflow of sum-decomposable
// layers, whose edge stage is column-wise, so each worker aggregates the full
// graph over its own column slice. Its four collectives share the KindSlice
// message kind, distinguished by Seq:
//
//	Seq 0  slice-scatter   owner j ships peer w the w-columns of its owned rows
//	Seq 1  re-gather       worker j ships owner w the j-columns of w's rows
//	Seq 2  re-scatter      owner j ships worker w the w-columns of dAgg (adjoint of 1)
//	Seq 3  grad-scatter    worker j ships owner w the j-columns of dX (adjoint of 0)
//
// Every exchange is expectation-symmetric: a message from j exists iff the
// sender's owned block and the receiver's slice are both non-empty, and both
// sides derive that from the shared plan — zero-width slices and empty
// partitions exchange nothing. All row and column placement goes through
// copyWindow / addWindow, the kernels TPSliceExchange's adjoint check tests.

// tpLayerRun holds the tensor-parallel tape state of one layer between the
// forward and backward sweeps. The edge stage runs on its own tape so the
// backward can stop at the aggregation boundary, re-scatter the full-width
// gradient, and only then push the assembled slice gradient through.
type tpLayerRun struct {
	sliceTape *autograd.Tape
	x         *autograd.Variable // slice input leaf X_j (|V| × width_j)
	aggSlice  *autograd.Variable // A_j = edge stage over the slice (|V| × width_j)
	agg       *autograd.Variable // main-tape leaf: re-gathered aggregation (|owned| × d)
}

// tpSend posts one slice-exchange message.
func (ws *workerState) tpSend(epoch, l, seq, to int, rows *tensor.Tensor) {
	ws.eng.fabric.Send(&comm.Message{
		From: ws.id, To: to, Kind: comm.KindSlice,
		Epoch: epoch, Layer: l, Seq: seq, Rows: rows,
	})
}

// scatterCols ships every peer with a non-empty column slice its columns of
// this worker's owned row block (the send half of Seq 0 and Seq 2).
func (ws *workerState) scatterCols(x TPSliceExchange, epoch, l, seq int, block *tensor.Tensor) {
	nOwned := len(ws.plan.owned)
	for _, j := range ws.peerOrder() {
		lo, hi := x.cols(j)
		if nOwned == 0 || hi == lo {
			continue
		}
		rows := ws.arena.Get(nOwned, hi-lo)
		copyWindow(at(rows, 0, 0), at(block, 0, lo), nOwned, hi-lo)
		ws.tpSend(epoch, l, seq, j, rows)
	}
}

// gatherBlocks assembles an owner-block-ordered |V|-row matrix: every peer's
// row block from its Seq message, this worker's own from the cols columns of
// own starting at ownCol (the receive half of Seq 0 and Seq 2).
func (ws *workerState) gatherBlocks(x TPSliceExchange, epoch, l, seq int, own *tensor.Tensor, ownCol, cols int) *tensor.Tensor {
	all := ws.arena.Get(x.BlockStart[x.NumWorkers()], cols)
	for _, j := range ws.peerOrder() {
		blo, bhi := x.rows(j)
		if bhi == blo {
			continue
		}
		msg := ws.mb.Wait(comm.KindSlice, epoch, l, seq, j)
		copyWindow(at(all, blo, 0), at(msg.Rows, 0, 0), bhi-blo, cols)
	}
	blo, bhi := x.rows(ws.id)
	copyWindow(at(all, blo, 0), at(own, 0, ownCol), bhi-blo, cols)
	return all
}

// sendBlocks ships every peer with a non-empty owned block its rows of the
// owner-block-ordered matrix all, as views (the send half of Seq 1 and Seq 3).
func (ws *workerState) sendBlocks(x TPSliceExchange, epoch, l, seq int, all *tensor.Tensor) {
	for _, j := range ws.peerOrder() {
		blo, bhi := x.rows(j)
		if bhi == blo {
			continue
		}
		ws.tpSend(epoch, l, seq, j, all.RowSlice(blo, bhi))
	}
}

// tpSlice is the slice dataflow of one worker's tensor-parallel layer.
type tpSlice struct {
	shared *tpShared
	// x is the layer's slice-exchange geometry: the shared row blocks and the
	// column slices of d^(l-1). Zero-width slices compute and exchange nothing.
	x TPSliceExchange
	// selfNormOwned is the owned rows' GCN self coefficients.
	selfNormOwned []float32
	// feat is the worker's column slice of all features in owner-block row
	// order — the layer's input at layer 1 (nil above it).
	feat *tensor.Tensor
}

func (f *tpSlice) bindFeatures(ws *workerState) {
	feats := ws.eng.ds.Features
	lo, hi := f.x.cols(ws.id)
	f.feat = tensor.New(feats.Rows(), hi-lo)
	if hi > lo {
		for v := 0; v < feats.Rows(); v++ {
			copy(f.feat.Row(int(f.shared.globalRow[v])), feats.Row(v)[lo:hi])
		}
	}
}

// forward: assemble the layer input's column slice over all |V| owner-block
// rows (static features at layer 1, a slice-scatter above), aggregate the full
// graph over that slice on a dedicated tape, re-gather the owned rows to full
// width, and run Combine and Transform on the main tape.
func (f *tpSlice) forward(ws *workerState, epoch, l int, prevVal *tensor.Tensor) layerRun {
	x := f.x
	sh := f.shared
	layer := ws.model.Layers[l-1]
	sd := layer.(nn.SumDecomposable)
	tape := ws.newTape()
	sc := ws.clock
	totalV := len(sh.globalRow)
	nOwned := len(ws.plan.owned)
	lo, hi := x.cols(ws.id)
	width := hi - lo
	requiresGrad := l > 1

	// 1. Slice input X_j (|V| × width_j). Layer 1 reads the static feature
	// slice assembled at construction; deeper layers run the slice-scatter.
	xVal := f.feat
	if l > 1 {
		sc.Phase(obs.StageDepFetchSend, l, "tp_slice_scatter", obs.Int("layer", l))
		ws.scatterCols(x, epoch, l, 0, prevVal)
		xVal = nil
		if width > 0 {
			sc.Phase(obs.StageDepFetchRecv, l, "tp_slice_gather", obs.Int("layer", l))
			xVal = ws.gatherBlocks(x, epoch, l, 0, prevVal, lo, width)
		}
	}

	// 2. Edge stage over the full graph, restricted to this worker's columns,
	// on its own tape (nothing to do for a zero-width slice).
	sc.Phase(obs.StageForward, l, "tp_edge_stage",
		obs.Int("layer", l), obs.Int("rows", totalV))
	trun := &tpLayerRun{}
	if width > 0 {
		trun.sliceTape = ws.newTape()
		trun.x = trun.sliceTape.Leaf(xVal, requiresGrad, "tp_x")
		trun.aggSlice = sd.EdgeStage(trun.sliceTape,
			trun.x, sh.all.SrcRow, sh.all.EdgeNorm, sh.all.EdgeDst, totalV)
	}

	// 3. Re-gather: every owner receives its rows' aggregation at full width.
	aggFull := ws.arena.Get(nOwned, layer.InDim())
	sc.Phase(obs.StageDepFetchSend, l, "tp_re_gather", obs.Int("layer", l))
	if width > 0 {
		ws.sendBlocks(x, epoch, l, 1, trun.aggSlice.Value)
	}
	if nOwned > 0 {
		sc.Phase(obs.StageDepFetchRecv, l, "tp_re_gather", obs.Int("layer", l))
		for _, j := range ws.peerOrder() {
			plo, phi := x.cols(j)
			if phi == plo {
				continue
			}
			msg := ws.mb.Wait(comm.KindSlice, epoch, l, 1, j)
			copyWindow(at(aggFull, 0, plo), at(msg.Rows, 0, 0), nOwned, phi-plo)
		}
		if width > 0 {
			copyWindow(at(aggFull, 0, lo), at(trun.aggSlice.Value, x.BlockStart[ws.id], 0), nOwned, width)
		}
	}

	// 4. Combine and Transform on the main tape. prevVal is exactly the owned
	// rows (TP layers admit no cached block below them), so it doubles as self.
	sc.Phase(obs.StageForward, l, "tp_vertex_stage",
		obs.Int("layer", l), obs.Int("rows", nOwned))
	hPrev := tape.Leaf(prevVal, requiresGrad, "h_prev")
	trun.agg = tape.Leaf(aggFull, requiresGrad, "tp_agg")
	out := sd.Transform(tape, sd.Combine(tape, trun.agg, hPrev, f.selfNormOwned), true, ws.rng)
	return layerRun{tape: tape, hPrev: hPrev, out: out, tp: trun}
}

// backward reverses forward: main tape backward, re-scatter dAgg into column
// slices (Seq 2), slice tape backward, scatter dX back to the owners (Seq 3)
// who accumulate it with the self-path gradient.
func (f *tpSlice) backward(ws *workerState, epoch, l int, runs []layerRun) {
	run := &runs[l-1]
	x := f.x
	sc := ws.clock
	ws.seedBackward(epoch, l, runs)
	if l == 1 {
		return // layer-1 inputs are static features: param grads only
	}

	nOwned := len(ws.plan.owned)
	lo, hi := x.cols(ws.id)
	width := hi - lo

	dAgg := run.tp.agg.Grad
	if dAgg == nil {
		dAgg = ws.arena.Get(nOwned, run.tp.agg.Value.Cols())
	}

	// Re-scatter (adjoint of the re-gather): route each worker's columns of
	// my owned rows' aggregation gradient back to that worker.
	sc.Phase(obs.StageMirrorScatter, l, "tp_re_scatter", obs.Int("layer", l))
	ws.scatterCols(x, epoch, l, 2, dAgg)
	var dASlice *tensor.Tensor
	if width > 0 {
		dASlice = ws.gatherBlocks(x, epoch, l, 2, dAgg, lo, width)
	}

	// Slice-tape backward: dA_j → dX_j over the full graph.
	sc.Phase(obs.StageBackward, l, "tp_edge_backward", obs.Int("layer", l))
	var dX *tensor.Tensor
	if width > 0 {
		run.tp.sliceTape.Backward(run.tp.aggSlice, dASlice)
		dX = run.tp.x.Grad
		if dX == nil {
			dX = ws.arena.Get(dASlice.Rows(), width)
		}
	}

	// Gradient scatter (adjoint of the slice-scatter): ship each owner its
	// rows of dX; owners accumulate every worker's columns — plus the local
	// self-path gradient already on hPrev — into the layer input's gradient.
	sc.Phase(obs.StageMirrorScatter, l, "tp_grad_scatter", obs.Int("layer", l))
	if width > 0 {
		ws.sendBlocks(x, epoch, l, 3, dX)
	}
	hg := run.hPrev.Grad
	if hg == nil {
		hg = ws.arena.Get(run.hPrev.Value.Rows(), run.hPrev.Value.Cols())
		run.hPrev.Grad = hg
	}
	if width > 0 {
		addWindow(at(hg, 0, lo), at(dX, x.BlockStart[ws.id], 0), nOwned, width)
	}
	for _, j := range ws.peerOrder() {
		plo, phi := x.cols(j)
		if nOwned == 0 || phi == plo {
			continue
		}
		msg := ws.mb.Wait(comm.KindSlice, epoch, l, 3, j)
		addWindow(at(hg, 0, plo), at(msg.Rows, 0, 0), nOwned, phi-plo)
	}
}
