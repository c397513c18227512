package engine

import (
	"time"

	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// workerState is one simulated cluster node: a model replica, the worker's
// slice of features and labels laid out in plan order, and its mailbox.
type workerState struct {
	id    int
	eng   *Engine
	plan  *workerPlan
	model *nn.Model
	opt   nn.Optimizer
	mb    *comm.Mailbox
	rng   *tensor.RNG
	// arena recycles this worker's training-time tensors (tape intermediates,
	// gradients, outgoing payloads) through the engine's pool; the engine
	// releases it at every epoch barrier. Nil when pooling is off or fault
	// injection is on (retransmissions may outlive the barrier).
	arena *tensor.Arena
	// clock times the pass the worker is running — a training epoch, or an
	// inference pass on a trace-only lane — and is the one place its phases
	// are emitted: every boundary is one Phase call, on the worker's own
	// goroutine. Nil (a no-op) when neither a recorder nor a collector is
	// attached.
	clock *obs.StageClock

	// feat is the layer-1 input in prev-layout: owned features followed by
	// cached (replicated) features — the one-time fetch of Algorithm 2
	// line 5 happens here at construction. Nil once a boundCombine layer 1
	// has combined it: nothing reads it afterwards.
	feat *tensor.Tensor
	// labels / trainMask are aligned with the owned rows.
	labels    []int32
	trainMask []bool
	// totalLabeled is Σ_i |V_L ∩ V_i| — the global normaliser that makes the
	// distributed loss equal the single-machine mean loss.
	totalLabeled int
}

// layerRun keeps the tape state of one layer's forward pass for the
// backward sweep.
type layerRun struct {
	tape  *autograd.Tape
	hPrev *autograd.Variable // leaf: previous layer's output (prev-layout; nil under boundCombine)
	hRecv *autograd.Variable // leaf: received mirror rows (nil if none, or held)
	out   *autograd.Variable // this layer's output (owned ++ cached layout)
	// chunkLeaves holds per-peer received leaves when the layer ran through
	// the chunk-pipelined path (hRecv is nil then). Held chunks are not among
	// them: nothing is posted back for static rows.
	chunkLeaves []chunkLeaf
	// tp holds the tensor-parallel tape state when the layer ran a DepTP
	// dataflow (hRecv and chunkLeaves are nil then).
	tp *tpLayerRun
}

// dataflow is how one layer of one worker obtains its input rows and returns
// their gradients: master–mirror messages (masterMirror, and boundCombine
// for a sum-decomposable layer 1), or one of the two tensor-parallel slice
// exchanges (tpSlice, tpAssemble). buildWorkerPlan chooses it when it builds
// the layer.
type dataflow interface {
	// bindFeatures does, once, everything layer 1 does with its static input
	// that no parameter can change: it assembles what the dataflow reads
	// besides ws.feat straight from the dataset — the stand-in for the
	// one-time fetch, so there is no set-up exchange and nothing to re-fetch
	// on Restore or under faults — and, where the layer allows, combines it.
	// Called at worker construction, after replica rows are requantized, on
	// layer 1's dataflow only — deeper layers' inputs arrive every epoch.
	bindFeatures(ws *workerState)
	// forward executes layer l on prevVal, the previous layer's output (ws.feat
	// for l = 1), keeping the tape state the backward sweep needs.
	forward(ws *workerState, epoch, l int, prevVal *tensor.Tensor, training bool) layerRun
	// backward runs layer l's tapes backward and returns the input gradients
	// to whoever produced the inputs, leaving runs[l-1].hPrev.Grad as the
	// seed of layer l-1.
	backward(ws *workerState, epoch, l int, runs []layerRun)
}

// masterMirror is the dataflow of Fig. 7: send master rows, redundantly
// compute the cached block, receive mirror rows, compute the owned block;
// backward, post mirror gradients to their masters. All of its plan lives on
// the layerPlan itself.
type masterMirror struct {
	// held is layer 1's held chunks as one block (heldFeatures; nil above
	// layer 1 and when the layer holds nothing).
	held *tensor.Tensor
}

// bindFeatures copies the feature rows of layer 1's held chunks beside
// ws.feat, the owned ++ cached features.
func (f *masterMirror) bindFeatures(ws *workerState) {
	f.held = heldFeatures(ws, &ws.plan.layers[0])
}

// heldFeatures copies the feature rows of layer 1's held chunks into one
// block: HAll rows numPrevRows and up, so peer j's chunk is the len(held[j])
// rows from recvOffset[j] on (nil when the layer holds nothing).
func heldFeatures(ws *workerState, lp *layerPlan) *tensor.Tensor {
	if lp.numHAllRows == lp.numPrevRows {
		return nil
	}
	feats := ws.eng.ds.Features
	held := tensor.New(lp.numHAllRows-lp.numPrevRows, feats.Cols())
	for j, verts := range lp.held {
		chunk := heldChunk(lp, held, j)
		for r, v := range verts {
			copy(chunk.Row(r), feats.Row(int(v)))
		}
	}
	return held
}

// heldChunk returns peer j's held chunk as a view of the held block.
func heldChunk(lp *layerPlan, held *tensor.Tensor, j int) *tensor.Tensor {
	base := int(lp.recvOffset[j]) - lp.numPrevRows
	return held.RowSlice(base, base+len(lp.held[j]))
}

// boundCombine is the master–mirror dataflow of a sum-decomposable layer 1.
// Everything such a layer does before its first parameter — the edge stage
// over owned, cached and held feature rows, the destinations' own rows,
// Combine — reads only features and the plan, so bindFeatures does it once
// and an epoch or inference pass runs Transform on the result. Nothing is
// sent, awaited or posted back, and no gradient leaves the layer's tape.
type boundCombine struct {
	// owned / cached are Combine's output for the layer's two destination
	// blocks (cached is nil when the layer recomputes nothing).
	owned, cached *tensor.Tensor
}

// bindFeatures runs the edge stage and Combine for both blocks with the ops,
// and in the order, of the forward path the options select for the layers
// above — the chunk-pipelined one sums per-region partials left to right, the
// other walks the block's CSR once — so the bound rows carry that path's own
// bits. The tape is a plain one: the rows outlive every epoch barrier. Held
// rows and ws.feat have no reader afterwards and are let go.
func (f *boundCombine) bindFeatures(ws *workerState) {
	lp := &ws.plan.layers[0]
	sd := ws.model.Layers[0].(nn.SumDecomposable)
	tape := autograd.NewTape()
	feat := tape.Constant(ws.feat, "h_prev")
	held := heldFeatures(ws, lp)
	combine := func(b *blockPlan, agg *autograd.Variable) *tensor.Tensor {
		return sd.Combine(tape, agg, tape.Gather(feat, b.selfRow), b.selfNorm).Value
	}

	if b := &lp.cached; b.numDst() > 0 {
		f.cached = combine(b, sd.EdgeStage(tape, feat, b.srcRow, b.edgeNorm, b.dstRow, b.numDst()))
	}
	b := &lp.owned
	var agg *autograd.Variable
	if ws.chunkPipelined() {
		agg = ws.aggregateChunked(tape, 1, sd, feat, false, func(j int) *autograd.Variable {
			if len(lp.held[j]) == 0 {
				return nil
			}
			return tape.Constant(heldChunk(lp, held, j), "h_held")
		})
	} else {
		all := feat
		if held != nil {
			all = tape.ConcatRows(feat, tape.Constant(held, "h_held"))
		}
		agg = sd.EdgeStage(tape, all, b.srcRow, b.edgeNorm, b.dstRow, b.numDst())
	}
	f.owned = combine(b, agg)
	ws.feat = nil
}

// forward runs Transform on the bound blocks, the cached one first as the
// master–mirror paths do (dropout draws in that order).
func (f *boundCombine) forward(ws *workerState, epoch, l int, _ *tensor.Tensor, training bool) layerRun {
	sd := ws.model.Layers[l-1].(nn.SumDecomposable)
	tape := ws.newTape(training)
	sc := ws.clock
	var outCached *autograd.Variable
	if f.cached != nil {
		depCacheHits.Add(float64(f.cached.Rows()))
		sc.Phase(obs.StageForward, l, "compute_cached",
			obs.Int("layer", l), obs.Int("rows", f.cached.Rows()))
		outCached = sd.Transform(tape, tape.Constant(f.cached, "combined"), training, ws.rng)
	}
	sc.Phase(obs.StageForward, l, "compute_owned",
		obs.Int("layer", l), obs.Int("rows", f.owned.Rows()))
	out := sd.Transform(tape, tape.Constant(f.owned, "combined"), training, ws.rng)
	if outCached != nil {
		out = tape.ConcatRows(out, outCached)
	}
	return layerRun{tape: tape, out: out}
}

// backward runs the layer's tape backward for its parameter gradients; the
// bound rows take none.
func (*boundCombine) backward(ws *workerState, epoch, l int, runs []layerRun) {
	ws.seedBackward(epoch, l, runs)
}

// chunkLeaf is one peer's received chunk as a tape leaf.
type chunkLeaf struct {
	peer int
	v    *autograd.Variable
}

func newWorkerState(id int, e *Engine, model *nn.Model) *workerState {
	plan := e.plans[id]
	ds := e.ds
	ws := &workerState{
		id: id, eng: e, plan: plan, model: model,
		opt: nn.NewAdam(e.opts.LR),
		mb:  e.fabric.Mailbox(id),
		rng: tensor.NewRNG(e.opts.Seed ^ (uint64(id)+1)*0x9E3779B9),
	}
	if e.opts.Fault == nil {
		ws.arena = e.opts.Pool.Arena()
	}
	// Assemble the layer-1 input block: owned features ++ cached features.
	dim := ds.Spec.FeatureDim
	cached0 := plan.cachedComputeAt(0)
	ws.feat = tensor.New(len(plan.owned)+len(cached0), dim)
	for r, v := range plan.owned {
		copy(ws.feat.Row(r), ds.Features.Row(int(v)))
	}
	for r, v := range cached0 {
		copy(ws.feat.Row(len(plan.owned)+r), ds.Features.Row(int(v)))
	}
	// Replicated plans may store replica features (re)quantized (CoFree-GNN's
	// requantized vertex copies): round-trip only the replica rows through the
	// storage format. Owners keep full precision, and every worker replicating
	// the same vertex round-trips the same source row identically, so the runs
	// stay deterministic and the deviation from the exact run is bounded by
	// partition.RequantizeErrorBound.
	if q := e.repQuant; q != partition.RepQuantOff && e.decs[id].NumRep() > 0 {
		for r := range cached0 {
			partition.Requantize(q, ws.feat.Row(len(plan.owned)+r))
		}
	}
	plan.layers[0].flow.bindFeatures(ws)
	ws.labels = make([]int32, len(plan.owned))
	ws.trainMask = make([]bool, len(plan.owned))
	for r, v := range plan.owned {
		ws.labels[r] = ds.Labels[v]
		ws.trainMask[r] = ds.TrainMask[v]
	}
	ws.totalLabeled = ds.TrainLabeledCount()
	return ws
}

// newTape returns the tape for one layer's forward pass: arena-backed during
// training (everything on it dies by the epoch barrier), plain-allocating for
// inference, whose outputs outlive any barrier.
func (ws *workerState) newTape(training bool) *autograd.Tape {
	var arena *tensor.Arena // nil: plain allocation
	if training {
		arena = ws.arena
	}
	tape := autograd.NewTapeArena(arena)
	if ws.eng.tapeHook != nil {
		ws.eng.tapeHook(tape)
	}
	return tape
}

// alloc returns a zeroed tensor from the worker's arena when it may be
// recycled at the epoch barrier (training), or a plain allocation otherwise.
func (ws *workerState) alloc(training bool, rows, cols int) *tensor.Tensor {
	if training {
		return ws.arena.Get(rows, cols)
	}
	return tensor.New(rows, cols)
}

// peerOrder returns the peer iteration order for this worker under the
// configured schedule.
func (ws *workerState) peerOrder() []int {
	if ws.eng.opts.Ring {
		return comm.RingOrder(ws.id, ws.eng.opts.Workers)
	}
	return comm.NaiveOrder(ws.id, ws.eng.opts.Workers)
}

// chunkPipelined reports whether sum-decomposable layers aggregate chunk by
// chunk (§4.3, Fig. 8) rather than over one assembled block.
func (ws *workerState) chunkPipelined() bool {
	return ws.eng.opts.Overlap && !ws.eng.opts.Broadcast
}

// runEpoch performs one full forward/backward/update cycle and returns the
// local loss sum and labeled-vertex count, and the span its clock ran for.
func (ws *workerState) runEpoch(epoch int) (lossSum float64, count int, busy time.Duration) {
	L := len(ws.plan.layers)
	runs := make([]layerRun, L)
	ws.clock = ws.eng.opts.Recorder.Clock(ws.id, ws.eng.opts.Collector.Tracer())
	ws.clock.Group("epoch",
		obs.Int("epoch", epoch), obs.String("mode", string(ws.eng.opts.Mode)))

	// ---- Forward: synchronize-compute per layer ----
	prevVal := ws.feat
	for l := 1; l <= L; l++ {
		runs[l-1] = ws.forwardLayer(epoch, l, prevVal, true)
		prevVal = runs[l-1].out.Value
	}

	// ---- Loss on owned rows of the final layer ----
	ws.clock.Phase(obs.StageBackward, L, "loss_backward", obs.Int("epoch", epoch))
	last := &runs[L-1]
	tape := last.tape
	ownedRows := len(ws.plan.owned)
	logits := last.out
	if logits.Value.Rows() != ownedRows {
		// Final layer has no cached block by construction; guard regardless.
		logits = tape.SliceRows(logits, 0, ownedRows)
	}
	loss, n := tape.NLLLossMasked(tape.LogSoftmax(logits), ws.labels, ws.trainMask)
	count = n
	lossSum = float64(loss.Value.At(0, 0)) * float64(n)

	// Seed so that the aggregated gradient equals the gradient of the
	// global mean loss: d(global mean)/d(local mean) = n / totalLabeled.
	seed := ws.alloc(true, 1, 1)
	if ws.totalLabeled > 0 {
		seed.Set(0, 0, float32(n)/float32(ws.totalLabeled))
	}
	tape.Backward(loss, seed)

	// ---- Backward: compute-synchronize per layer ----
	for l := L; l >= 1; l-- {
		ws.clock.Phase(obs.StageBackward, l, "seed_backward", obs.Int("layer", l))
		ws.clock.Group("backward", obs.Int("layer", l))
		ws.plan.layers[l-1].flow.backward(ws, epoch, l, runs)
		ws.clock.EndGroup()
	}

	// ---- Parameter update: collect, synchronise, step ----
	ws.clock.Phase(obs.StageBackward, 0, "collect_grads")
	params := ws.model.Params()
	for _, p := range params {
		p.CollectGrad()
	}
	if sched := ws.eng.opts.Scheduler; sched != nil {
		nn.SetLR(ws.opt, sched.LR(epoch))
	}
	if ws.eng.opts.ParamServer {
		// Clipping happens on the server after summation; workers receive
		// the already-stepped parameters.
		ws.paramServerUpdate(epoch, params)
	} else {
		ws.allReduceGrads(epoch, params)
		if ws.eng.opts.ClipNorm > 0 {
			nn.ClipGradNorm(params, ws.eng.opts.ClipNorm)
		}
		ws.opt.Step(params)
	}
	nn.ZeroGrads(params)
	return lossSum, count, ws.clock.End()
}

// forwardLayer runs layer l's dataflow on prevVal inside its structural
// "layer" group, on whichever clock the pass is running.
func (ws *workerState) forwardLayer(epoch, l int, prevVal *tensor.Tensor, training bool) layerRun {
	ws.clock.Phase(obs.StageForward, l, "tape_setup", obs.Int("layer", l))
	ws.clock.Group("layer", obs.Int("layer", l))
	defer ws.clock.EndGroup()
	return ws.plan.layers[l-1].flow.forward(ws, epoch, l, prevVal, training)
}

func (f *masterMirror) forward(ws *workerState, epoch, l int, prevVal *tensor.Tensor, training bool) layerRun {
	lp := &ws.plan.layers[l-1]
	layer := ws.model.Layers[l-1]
	tape := ws.newTape(training)
	sc := ws.clock

	sendDone := make(chan struct{})
	if ws.eng.opts.Overlap {
		// The background sender runs beside the worker's own timeline: it gets
		// a lane of its own and must never touch sc, which is single-goroutine.
		// Its wire bytes are still attributed via the fabric hooks.
		lane := sc.Lane()
		go func() {
			defer close(sendDone)
			ws.sendReps(epoch, l, prevVal, training, lane)
			lane.End()
		}()
	} else {
		ws.sendReps(epoch, l, prevVal, training, sc)
		close(sendDone)
		sc.Phase(obs.StageForward, l, "tape_setup", obs.Int("layer", l))
	}

	// Chunk-pipelined path (§4.3, Fig. 8): for sum-decomposable layers each
	// received chunk's edge stage runs as the chunk arrives, so compute on
	// chunk k overlaps delivery of chunk k+1.
	if sd, ok := layer.(nn.SumDecomposable); ok && ws.chunkPipelined() {
		run := f.forwardLayerChunked(ws, epoch, l, prevVal, training, sd, tape)
		<-sendDone
		return run
	}

	requireFeatGrad := training && l > 1 // layer 1's input is the static feature block
	hPrev := tape.Leaf(prevVal, requireFeatGrad, "h_prev")

	// Vertex-level pre-transform (e.g. GAT's z = W·h) applies to every row
	// universe exactly once.
	zPrev := hPrev
	pt, hasPT := layer.(nn.PreTransformer)
	if hasPT {
		sc.Phase(obs.StageForward, l, "pre_transform", obs.Int("layer", l))
		zPrev = pt.PreTransform(tape, hPrev, training, ws.rng)
	}

	// Cached (DepCache) block: all sources are local, so it runs while the
	// mirror exchange is in flight — the overlap of Fig. 8.
	var outCached *autograd.Variable
	if lp.cached.numDst() > 0 {
		depCacheHits.Add(float64(lp.cached.numDst()))
		sc.Phase(obs.StageForward, l, "compute_cached",
			obs.Int("layer", l), obs.Int("rows", lp.cached.numDst()))
		outCached = ws.runBlock(tape, layer, &lp.cached, zPrev, zPrev, training)
	}

	// The rows of other workers: the held block as it stands, or mirror chunks
	// received and assembled into one block. Only received rows take a
	// gradient — they have masters to post it to.
	var hRecv *autograd.Variable
	zAll := zPrev
	if lp.numHAllRows > lp.numPrevRows {
		var hRest *autograd.Variable
		if f.held != nil {
			sc.Phase(obs.StageForward, l, "tape_setup", obs.Int("layer", l))
			hRest = tape.Leaf(f.held, false, "h_held")
		} else {
			hRecv = ws.recvReps(tape, epoch, l, training)
			hRest = hRecv
		}
		zRest := hRest
		if hasPT {
			sc.Phase(obs.StageForward, l, "pre_transform", obs.Int("layer", l))
			zRest = pt.PreTransform(tape, hRest, training, ws.rng)
		}
		zAll = tape.ConcatRows(zPrev, zRest)
	}

	// Owned block: sources may live anywhere in zAll.
	sc.Phase(obs.StageForward, l, "compute_owned",
		obs.Int("layer", l), obs.Int("rows", lp.owned.numDst()))
	outOwned := ws.runBlock(tape, layer, &lp.owned, zAll, zPrev, training)
	out := outOwned
	if outCached != nil {
		out = tape.ConcatRows(outOwned, outCached)
	}

	<-sendDone
	return layerRun{tape: tape, hPrev: hPrev, hRecv: hRecv, out: out}
}

// recvReps waits for every peer's mirror chunk of layer l and assembles them
// into one leaf, HAll rows numPrevRows and up.
func (ws *workerState) recvReps(tape *autograd.Tape, epoch, l int, training bool) *autograd.Variable {
	lp := &ws.plan.layers[l-1]
	sc := ws.clock
	numRecv := lp.numHAllRows - lp.numPrevRows
	depCacheMisses.Add(float64(numRecv))
	sc.Phase(obs.StageDepFetchRecv, l, "gather_dep_nbr",
		obs.Int("layer", l), obs.Int("rows", numRecv))
	recvBytes := 0
	recvVal := ws.alloc(training, numRecv, ws.model.Layers[l-1].InDim())
	for _, j := range ws.peerOrder() {
		verts := lp.recv[j]
		if len(verts) == 0 {
			continue
		}
		base := int(lp.recvOffset[j]) - lp.numPrevRows
		if ws.eng.opts.Broadcast {
			msg := ws.mb.Wait(comm.KindBlock, epoch, l, 0, j)
			recvBytes += msg.WireBytes()
			for r, v := range verts {
				idx := searchVertex(msg.Vertices, v)
				copy(recvVal.Row(base+r), msg.Rows.Row(idx))
			}
			continue
		}
		msg := ws.mb.Wait(comm.KindRep, epoch, l, 0, j)
		recvBytes += msg.WireBytes()
		for r := range verts {
			copy(recvVal.Row(base+r), msg.Rows.Row(r))
		}
	}
	sc.SetAttrs(obs.Int("bytes", recvBytes))
	sc.Phase(obs.StageForward, l, "tape_setup", obs.Int("layer", l))
	return tape.Leaf(recvVal, true, "h_recv")
}

// runForward executes a forward-only (inference) pass and returns the owned
// vertices' final-layer outputs. Parameters bound on the throwaway tapes are
// released immediately. epoch must be unique per collective (the engine uses
// a dedicated counter range so inference messages never alias training ones).
func (ws *workerState) runForward(epoch int) *tensor.Tensor {
	L := len(ws.plan.layers)
	// An inference pass runs outside any epoch: it is timed on a trace-only
	// lane, so a collector sees its spans and the flight recorder nothing.
	ws.clock = ws.eng.opts.Recorder.Clock(ws.id, ws.eng.opts.Collector.Tracer()).Lane()
	prevVal := ws.feat
	for l := 1; l <= L; l++ {
		prevVal = ws.forwardLayer(epoch, l, prevVal, false).out.Value
	}
	ws.clock.End()
	for _, p := range ws.model.Params() {
		p.CollectGrad()
	}
	return prevVal.RowSlice(0, len(ws.plan.owned))
}

// forwardLayerChunked is the incremental-aggregation forward: the owned
// block's edges are processed per source region (local first, then each
// peer's chunk in arrival schedule order), partial aggregations are summed,
// and Combine and Transform run once at the end. Its layers sit above layer
// 1 (a sum-decomposable layer 1 is a boundCombine), so every chunk is
// received.
func (f *masterMirror) forwardLayerChunked(ws *workerState, epoch, l int, prevVal *tensor.Tensor,
	training bool, sd nn.SumDecomposable, tape *autograd.Tape) layerRun {

	lp := &ws.plan.layers[l-1]
	layer := ws.model.Layers[l-1]
	sc := ws.clock
	hPrev := tape.Leaf(prevVal, training && l > 1, "h_prev")

	// Cached (DepCache) block first: pure local work that hides behind the
	// in-flight mirror exchange.
	var outCached *autograd.Variable
	if lp.cached.numDst() > 0 {
		depCacheHits.Add(float64(lp.cached.numDst()))
		sc.Phase(obs.StageForward, l, "compute_cached",
			obs.Int("layer", l), obs.Int("rows", lp.cached.numDst()))
		outCached = ws.runBlock(tape, layer, &lp.cached, hPrev, hPrev, training)
	}

	var leaves []chunkLeaf
	agg := ws.aggregateChunked(tape, l, sd, hPrev, training, func(j int) *autograd.Variable {
		verts := lp.recv[j]
		if len(verts) == 0 {
			return nil
		}
		depCacheMisses.Add(float64(len(verts)))
		sc.Phase(obs.StageDepFetchRecv, l, "recv_chunk",
			obs.Int("layer", l), obs.Int("peer", j), obs.Int("rows", len(verts)))
		msg := ws.mb.Wait(comm.KindRep, epoch, l, 0, j)
		sc.SetAttrs(obs.Int("bytes", msg.WireBytes()))
		// The chunk's edge stage, from wrapping it as a leaf on; empty when
		// the chunk was received for availability but no owned edge uses it.
		sc.Phase(obs.StageForward, l, "edge_stage",
			obs.Int("layer", l), obs.Int("peer", j))
		leaf := tape.Leaf(msg.Rows, true, "h_chunk")
		leaves = append(leaves, chunkLeaf{peer: j, v: leaf})
		return leaf
	})
	self := tape.Gather(hPrev, lp.owned.selfRow)
	outOwned := sd.Transform(tape, sd.Combine(tape, agg, self, lp.owned.selfNorm), training, ws.rng)
	out := outOwned
	if outCached != nil {
		out = tape.ConcatRows(outOwned, outCached)
	}
	return layerRun{tape: tape, hPrev: hPrev, out: out, chunkLeaves: leaves}
}

// aggregateChunked is §4.3's incremental aggregation of layer l's owned
// block: the local region's edge stage, then each peer chunk's as chunk(j)
// yields it (nil when nothing of peer j's is there to read) in schedule
// order, and the partials summed left to right.
func (ws *workerState) aggregateChunked(tape *autograd.Tape, l int, sd nn.SumDecomposable,
	hPrev *autograd.Variable, training bool, chunk func(j int) *autograd.Variable) *autograd.Variable {

	lp := &ws.plan.layers[l-1]
	sc := ws.clock
	numDst := lp.owned.numDst()
	var partials []*autograd.Variable
	if g := &lp.ownedGroups[0]; len(g.srcLocal) > 0 {
		sc.Phase(obs.StageForward, l, "edge_stage",
			obs.Int("layer", l), obs.Int("peer", -1))
		partials = append(partials,
			sd.EdgeStage(tape, hPrev, g.srcLocal, g.edgeNorm, g.dstRow, numDst))
	}
	for _, j := range ws.peerOrder() {
		leaf := chunk(j)
		if g := lp.groupOf[j]; leaf != nil && g != nil {
			partials = append(partials,
				sd.EdgeStage(tape, leaf, g.srcLocal, g.edgeNorm, g.dstRow, numDst))
		}
	}

	sc.Phase(obs.StageForward, l, "vertex_stage",
		obs.Int("layer", l), obs.Int("rows", numDst))
	if len(partials) == 0 {
		return tape.Constant(ws.alloc(training, numDst, hPrev.Value.Cols()), "agg_zero")
	}
	agg := partials[0]
	for _, p := range partials[1:] {
		agg = tape.Add(agg, p)
	}
	return agg
}

// runBlock executes one destination block through the layer's Forward.
// srcUniverse provides edge-source rows, read through b.srcRow; selfUniverse
// provides the destinations' own rows (always within the prev-layout part).
func (ws *workerState) runBlock(tape *autograd.Tape, layer nn.Layer, b *blockPlan,
	srcUniverse, selfUniverse *autograd.Variable, training bool) *autograd.Variable {
	ctx := &nn.ForwardCtx{
		Tape:     tape,
		Src:      srcUniverse,
		SrcRow:   b.srcRow,
		Self:     tape.Gather(selfUniverse, b.selfRow),
		Offsets:  b.offsets,
		EdgeDst:  b.dstRow,
		EdgeNorm: b.edgeNorm,
		SelfNorm: b.selfNorm,
		Training: training,
		RNG:      ws.rng,
	}
	return layer.Forward(ctx)
}

// sendReps packs and sends this worker's master rows needed by each peer at
// layer l, one send_dep_nbr phase per peer on sc — the worker's clock when
// the send runs inline, a lane of it when it runs in the background. prevVal
// rows 0..len(owned) are the owned vertices in ascending order, so row lookup
// is the position in the owned list. Training sends draw payload buffers from
// the arena (the receiver is done with them by the epoch barrier); inference
// payloads must outlive barriers and allocate plainly.
func (ws *workerState) sendReps(epoch, l int, prevVal *tensor.Tensor, training bool, sc *obs.StageClock) {
	var arena *tensor.Arena
	if training {
		arena = ws.arena
	}
	lp := &ws.plan.layers[l-1]
	ownedPos := ws.plan.prevIndex[l-1] // owned rows come first in every layout
	for _, j := range ws.peerOrder() {
		verts := lp.send[j]
		if len(verts) == 0 {
			continue
		}
		sc.Phase(obs.StageDepFetchSend, l, "send_dep_nbr",
			obs.Int("layer", l), obs.Int("peer", j))
		if ws.eng.opts.Broadcast {
			// ROC-style: ship the whole owned block; the receiver picks the
			// rows it needs.
			msg := &comm.Message{
				From: ws.id, To: j, Kind: comm.KindBlock,
				Epoch: epoch, Layer: l,
				Vertices: ws.plan.owned,
				Rows:     prevVal.RowSlice(0, len(ws.plan.owned)),
			}
			sc.SetAttrs(obs.Int("bytes", msg.WireBytes()))
			ws.eng.fabric.Send(msg)
			continue
		}
		buf := comm.NewEnqueuerArena(ws.eng.opts.LockFree, verts, prevVal.Cols(), arena)
		tensor.ParallelRows(len(verts), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				// verts is the buffer's own vertex list, so position k IS the
				// destination row: skip the per-vertex position lookup.
				buf.WriteRowAt(k, prevVal.Row(int(ownedPos[verts[k]])))
			}
		})
		rows, ids := buf.Finish()
		msg := &comm.Message{
			From: ws.id, To: j, Kind: comm.KindRep,
			Epoch: epoch, Layer: l, Vertices: ids, Rows: rows,
		}
		sc.SetAttrs(obs.Int("bytes", msg.WireBytes()))
		ws.eng.fabric.Send(msg)
	}
}

// searchVertex returns the index of v in the ascending list, or -1.
func searchVertex(list []int32, v int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo] == v {
		return lo
	}
	return -1
}

// seedBackward runs layer l's main tape backward from the gradient of its
// output. For the top layer the loss already back-propagated on the same
// tape, so there is nothing to seed; for lower layers the seed is the upper
// layer's input gradient plus the mirror gradients of the master rows this
// worker sent it (none when the upper layer is tensor-parallel: its backward
// already returned every gradient into hPrev.Grad).
func (ws *workerState) seedBackward(epoch, l int, runs []layerRun) {
	if l >= len(runs) {
		return
	}
	run := &runs[l-1]
	seed := runs[l].hPrev.Grad
	if seed == nil {
		seed = ws.alloc(true, run.out.Value.Rows(), run.out.Value.Cols())
	}
	ws.receiveMirrorGrads(epoch, l+1, seed)
	ws.clock.Phase(obs.StageBackward, l, "tape_backward", obs.Int("layer", l))
	run.tape.Backward(run.out, seed)
}

// backward runs layer l's tape backward, then posts mirror gradients back to
// their masters (PostToDepNbr).
func (*masterMirror) backward(ws *workerState, epoch, l int, runs []layerRun) {
	lp := &ws.plan.layers[l-1]
	run := &runs[l-1]
	ws.seedBackward(epoch, l, runs)
	// Post mirror gradients of chunk-pipelined leaves (one message per peer
	// chunk).
	if len(run.chunkLeaves) > 0 {
		ws.clock.Phase(obs.StageMirrorScatter, l, "post_to_dep_nbr", obs.Int("layer", l))
		for _, cl := range run.chunkLeaves {
			verts := lp.recv[cl.peer]
			grad := cl.v.Grad
			if grad == nil {
				grad = ws.alloc(true, cl.v.Value.Rows(), cl.v.Value.Cols())
			}
			ws.eng.fabric.Send(&comm.Message{
				From: ws.id, To: cl.peer, Kind: comm.KindGrad,
				Epoch: epoch, Layer: l, Vertices: verts, Rows: grad,
			})
		}
	}
	// Post mirror gradients of this layer's received rows to their masters.
	if run.hRecv != nil {
		grad := run.hRecv.Grad
		if grad == nil {
			grad = ws.alloc(true, run.hRecv.Value.Rows(), run.hRecv.Value.Cols())
		}
		ws.clock.Phase(obs.StageMirrorScatter, l, "post_to_dep_nbr", obs.Int("layer", l))
		for _, j := range ws.peerOrder() {
			verts := lp.recv[j]
			if len(verts) == 0 {
				continue
			}
			base := int(lp.recvOffset[j]) - lp.numPrevRows
			if ws.eng.opts.Broadcast {
				// ROC-style: a full-width gradient block aligned with the
				// master's owned list, zero-padded.
				ownerOwned := ws.eng.plans[j].owned
				block := ws.alloc(true, len(ownerOwned), grad.Cols())
				for r, v := range verts {
					pos := searchVertex(ownerOwned, v)
					copy(block.Row(pos), grad.Row(base+r))
				}
				ws.eng.fabric.Send(&comm.Message{
					From: ws.id, To: j, Kind: comm.KindGrad,
					Epoch: epoch, Layer: l, Vertices: ownerOwned, Rows: block,
				})
				continue
			}
			rows := ws.arena.GetCopy(grad.RowSlice(base, base+len(verts)))
			ws.eng.fabric.Send(&comm.Message{
				From: ws.id, To: j, Kind: comm.KindGrad,
				Epoch: epoch, Layer: l, Vertices: verts, Rows: rows,
			})
		}
	}
}

// receiveMirrorGrads waits for the gradient chunks of the masters this
// worker sent at layer l and accumulates them into seed's owned rows.
// Waiting on mirror gradients is scatter-side time of the layer that sent the
// mirrors; the caller's next phase returns the clock to backward compute.
func (ws *workerState) receiveMirrorGrads(epoch, l int, seed *tensor.Tensor) {
	lp := &ws.plan.layers[l-1]
	ownedPos := ws.plan.prevIndex[l-1]
	for _, j := range ws.peerOrder() {
		verts := lp.send[j]
		if len(verts) == 0 {
			continue
		}
		ws.clock.Phase(obs.StageMirrorScatter, l, "recv_mirror_grads",
			obs.Int("layer", l), obs.Int("peer", j))
		msg := ws.mb.Wait(comm.KindGrad, epoch, l, 0, j)
		ws.clock.SetAttrs(obs.Int("bytes", msg.WireBytes()))
		if ws.eng.opts.Broadcast {
			// Full-width block aligned with my owned rows (which are the
			// first rows of every layout).
			addWindow(at(seed, 0, 0), at(msg.Rows, 0, 0), len(msg.Vertices), msg.Rows.Cols())
			continue
		}
		for r, v := range verts {
			tensor.AddTo(seed.Row(int(ownedPos[v])), msg.Rows.Row(r))
		}
	}
}
