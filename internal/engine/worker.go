package engine

import (
	"fmt"
	"slices"

	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// workerState is one simulated cluster node: a model replica, the worker's
// slice of features and labels laid out in plan order, and its mailbox.
type workerState struct {
	id    int
	eng   *Engine
	plan  *workerPlan
	model *nn.Model
	opt   *nn.Adam
	mb    *comm.Mailbox
	rng   *tensor.RNG
	// arena recycles this worker's tensors (tape intermediates, gradients,
	// outgoing payloads) through the engine's pool; the engine releases it at
	// every epoch barrier. Nil when pooling is off, and while layer 1 is bound.
	arena *tensor.Arena
	// clock times the training epoch the worker is running and is the one
	// place its phases are emitted: every boundary is one Phase call, on the
	// worker's own goroutine. Nil (a no-op) when neither a recorder nor a
	// tracer is attached.
	clock *obs.StageClock

	// feat is the layer-1 input in prev-layout: owned features followed by
	// cached (replicated) features — the one-time fetch of Algorithm 2
	// line 5 happens here at construction. Nil once a sum-decomposable layer 1
	// has combined it (masterMirror.bindFeatures): nothing reads it afterwards.
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
	hPrev *autograd.Variable // leaf: previous layer's output (prev-layout; nil when layer 1 is bound)
	out   *autograd.Variable // this layer's output (owned ++ cached layout)
	// recv holds every representation message the layer received as the tape
	// leaf it entered on, in arrival order: what the backward leaves in a
	// leaf's Grad is what is posted to its peer. Held rows are not among
	// them: nothing is posted back for static rows.
	recv []recvLeaf
	// tp holds the tensor-parallel tape state when the layer ran the slice
	// dataflow (recv is nil then).
	tp *tpLayerRun
}

// recvLeaf is one peer's representation message as a tape leaf.
type recvLeaf struct {
	peer int
	v    *autograd.Variable
}

// dataflow is how one layer of one worker obtains its input rows and returns
// their gradients: master–mirror messages (masterMirror), or the
// tensor-parallel slice exchange (tpSlice). buildWorkerPlan chooses it when it
// builds the layer.
type dataflow interface {
	// bindFeatures does, once, everything layer 1 does with its static input
	// that no parameter can change: it assembles what the dataflow reads
	// besides ws.feat straight from the dataset — the stand-in for the
	// one-time fetch, so there is no set-up exchange and nothing to re-fetch
	// on Restore or under faults — and, where the layer allows, combines it.
	// Called at worker construction, on layer 1's dataflow only — deeper
	// layers' inputs arrive every epoch.
	bindFeatures(ws *workerState)
	// forward executes layer l on prevVal, the previous layer's output (ws.feat
	// for l = 1), keeping the tape state the backward sweep needs.
	forward(ws *workerState, epoch, l int, prevVal *tensor.Tensor) layerRun
	// backward runs layer l's tapes backward and returns the input gradients
	// to whoever produced the inputs, leaving runs[l-1].hPrev.Grad as the
	// seed of layer l-1.
	backward(ws *workerState, epoch, l int, runs []layerRun)
}

// masterMirror is the dataflow of Fig. 7: send master rows, redundantly
// compute the cached block, receive mirror rows, compute the owned block;
// backward, post mirror gradients to their masters. All of its plan lives on
// the layerPlan itself; the fields are what layer 1 binds at construction.
type masterMirror struct {
	// held is layer 1's held chunks as one block: HAll rows numPrevRows and
	// up, so peer j's chunk is the len(held[j]) rows from recvOffset[j] on.
	// Nil above layer 1, when the layer holds nothing, and once the rows
	// below have absorbed it.
	held *tensor.Tensor
	// boundOwned / boundCached are a sum-decomposable layer 1's combined rows
	// for its two destination blocks (boundCached is nil when the layer
	// recomputes nothing). Everything such a layer does before its first
	// parameter reads only features and the plan, so epochs run Transform on
	// these: nothing is sent, awaited or posted back, and no gradient leaves
	// the layer's tape.
	boundOwned, boundCached *tensor.Tensor
}

// bindFeatures copies the feature rows of layer 1's held chunks beside
// ws.feat, the owned ++ cached features, and, for a sum-decomposable layer,
// runs the forward's own combine over them once, on a plain tape and before
// the worker's arena is attached: the bound rows, and everything drawn to
// compute them, outlive every epoch barrier. They carry the bits of the path
// the options select, because that path's code computed them. Held rows and
// ws.feat have no reader afterwards and are let go.
func (f *masterMirror) bindFeatures(ws *workerState) {
	lp := &ws.plan.layers[0]
	if lp.numHAllRows > lp.numPrevRows {
		feats := ws.eng.ds.Features
		f.held = tensor.New(lp.numHAllRows-lp.numPrevRows, feats.Cols())
		for j, verts := range lp.held {
			chunk := f.heldChunk(lp, j)
			for r, v := range verts {
				copy(chunk.Row(r), feats.Row(int(v)))
			}
		}
	}
	sd, ok := ws.model.Layers[0].(nn.SumDecomposable)
	if !ok {
		return
	}
	run := layerRun{tape: autograd.NewTape()}
	feat := run.tape.Constant(ws.feat, "h_prev")
	if lp.cached.numDst() > 0 {
		f.boundCached = combineBlock(run.tape, sd, &lp.cached, feat, feat).Value
	}
	f.boundOwned = f.combineOwned(ws, &run, 0, 1, sd, feat).Value
	ws.feat, f.held = nil, nil
}

// heldChunk returns peer j's held chunk as a view of the held block.
func (f *masterMirror) heldChunk(lp *layerPlan, j int) *tensor.Tensor {
	base := int(lp.recvOffset[j]) - lp.numPrevRows
	return f.held.RowSlice(base, base+len(lp.held[j]))
}

func newWorker(id int, e *Engine, model *nn.Model) *workerState {
	plan := e.plans[id]
	ds := e.ds
	ws := &workerState{
		id: id, eng: e, plan: plan, model: model,
		opt: nn.NewAdam(e.opts.LR),
		mb:  e.fabric.Mailbox(id),
		rng: tensor.NewRNG(e.opts.Seed ^ (uint64(id)+1)*0x9E3779B9),
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
	plan.layers[0].flow.bindFeatures(ws)
	ws.arena = e.opts.Pool.Arena()
	ws.labels = make([]int32, len(plan.owned))
	ws.trainMask = make([]bool, len(plan.owned))
	for r, v := range plan.owned {
		ws.labels[r] = ds.Labels[v]
		ws.trainMask[r] = ds.TrainMask[v]
	}
	ws.totalLabeled = ds.TrainLabeledCount()
	return ws
}

// newTape returns the tape for one layer's forward pass, backed by the
// worker's arena: everything on it dies by the epoch barrier.
func (ws *workerState) newTape() *autograd.Tape {
	tape := autograd.NewTapeArena(ws.arena)
	if ws.eng.tapeHook != nil {
		ws.eng.tapeHook(ws.id, tape)
	}
	return tape
}

// peerOrder returns the peer iteration order for this worker under the
// configured schedule.
func (ws *workerState) peerOrder() []int {
	if ws.eng.opts.Ring {
		return comm.RingOrder(ws.id, ws.eng.opts.Workers)
	}
	return comm.NaiveOrder(ws.id, ws.eng.opts.Workers)
}

// arrivalOrder is the order peers' messages of one exchange reach this
// worker. Under the ring schedule sender j puts worker i at position
// (i−j−1) mod m of its RingOrder, so peer i−1 arrives first and i+1 last:
// the reverse of peerOrder. Without the ring every sender walks its peers
// in ascending order, no peer is reliably first, and it is peerOrder.
func (ws *workerState) arrivalOrder() []int {
	order := ws.peerOrder()
	if ws.eng.opts.Ring {
		slices.Reverse(order)
	}
	return order
}

// runEpoch performs one full forward/backward/update cycle and returns the
// local loss sum and labeled-vertex count.
func (ws *workerState) runEpoch(epoch int) (lossSum float64, count int) {
	L := len(ws.plan.layers)
	runs := make([]layerRun, L)
	ws.clock = ws.eng.opts.Recorder.Clock(ws.id, ws.eng.opts.Tracer)
	ws.clock.Group("epoch",
		obs.Int("epoch", epoch), obs.String("mode", string(ws.eng.opts.Mode)))

	// ---- Forward: synchronize-compute per layer ----
	prevVal := ws.feat
	for l := 1; l <= L; l++ {
		ws.clock.Phase(obs.StageForward, l, "tape_setup", obs.Int("layer", l))
		ws.clock.Group("layer", obs.Int("layer", l))
		runs[l-1] = ws.plan.layers[l-1].flow.forward(ws, epoch, l, prevVal)
		ws.clock.EndGroup()
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
	loss, n := tape.CrossEntropyMasked(logits, ws.labels, ws.trainMask)
	count = n
	lossSum = float64(loss.Value.At(0, 0)) * float64(n)

	// Seed so that the aggregated gradient equals the gradient of the
	// global mean loss: d(global mean)/d(local mean) = n / totalLabeled.
	seed := ws.arena.Get(1, 1)
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
	if ws.eng.opts.ParamServer {
		// The server steps once; workers receive the stepped parameters.
		ws.paramServerUpdate(epoch, params)
	} else {
		ws.allReduceGrads(epoch, params)
		ws.opt.Step(params)
	}
	nn.ZeroGrads(params)
	ws.clock.End()
	return lossSum, count
}

// forward sets up the tape and the sender, then runs the layer by its kind.
func (f *masterMirror) forward(ws *workerState, epoch, l int, prevVal *tensor.Tensor) layerRun {
	lp := &ws.plan.layers[l-1]
	layer := ws.model.Layers[l-1]
	run := layerRun{tape: ws.newTape()}
	sc := ws.clock

	var sent chan struct{} // closed by the background sender; nil without one
	switch {
	case !lp.sends:
	case ws.eng.opts.Overlap:
		// The background sender runs beside the worker's own timeline: it gets
		// a lane of its own and must never touch sc, which is single-goroutine.
		// Its wire bytes are still attributed via the fabric hooks.
		sent = make(chan struct{})
		lane := sc.Lane()
		go func() {
			defer close(sent)
			ws.sendReps(epoch, l, prevVal, lane)
			lane.End()
		}()
	default:
		ws.sendReps(epoch, l, prevVal, sc)
		sc.Phase(obs.StageForward, l, "tape_setup", obs.Int("layer", l))
	}

	// Either way the cached (DepCache) block runs first, Transform included:
	// all its sources are local, so it hides behind the in-flight mirror
	// exchange (the overlap of Fig. 8), and dropout draws in that order.
	var outOwned, outCached *autograd.Variable
	if sd, ok := layer.(nn.SumDecomposable); ok {
		outOwned, outCached = f.forwardSum(ws, &run, epoch, l, sd, prevVal)
	} else {
		outOwned, outCached = f.forwardBlocks(ws, &run, epoch, l, layer, prevVal)
	}
	run.out = outOwned
	if outCached != nil {
		run.out = run.tape.ConcatRows(outOwned, outCached)
	}
	if sent != nil {
		<-sent
	}
	return run
}

// forwardSum runs a sum-decomposable layer: Transform of each destination
// block's combined rows — the ones bound at construction, or computed now.
func (f *masterMirror) forwardSum(ws *workerState, run *layerRun, epoch, l int, sd nn.SumDecomposable,
	prevVal *tensor.Tensor) (outOwned, outCached *autograd.Variable) {

	lp := &ws.plan.layers[l-1]
	tape := run.tape
	sc := ws.clock
	bound := f.boundOwned != nil
	if !bound {
		// Layer 1's input is the static feature block: it takes no gradient.
		run.hPrev = tape.Leaf(prevVal, l > 1, "h_prev")
	}
	if b := &lp.cached; b.numDst() > 0 {
		sc.Phase(obs.StageForward, l, "compute_cached",
			obs.Int("layer", l), obs.Int("rows", b.numDst()))
		var combined *autograd.Variable
		if bound {
			combined = tape.Constant(f.boundCached, "combined")
		} else {
			combined = combineBlock(tape, sd, b, run.hPrev, run.hPrev)
		}
		outCached = sd.Transform(tape, combined, true, ws.rng)
	}
	var combined *autograd.Variable
	if bound {
		sc.Phase(obs.StageForward, l, "compute_owned",
			obs.Int("layer", l), obs.Int("rows", lp.owned.numDst()))
		combined = tape.Constant(f.boundOwned, "combined")
	} else {
		combined = f.combineOwned(ws, run, epoch, l, sd, run.hPrev)
	}
	return sd.Transform(tape, combined, true, ws.rng), outCached
}

// combineBlock is a sum-decomposable layer's work on one destination block
// before its first parameter, in the order Layer.Forward records it: the
// destinations' own rows, the edge stage over src, Combine.
func combineBlock(tape *autograd.Tape, sd nn.SumDecomposable, b *blockPlan, src, selfUniverse *autograd.Variable) *autograd.Variable {
	self := tape.Gather(selfUniverse, b.selfRow)
	agg := sd.EdgeStage(tape, src, b.srcRow, b.edgeNorm, b.dstRow, b.numDst())
	return sd.Combine(tape, agg, self, b.selfNorm)
}

// combineOwned combines the owned block, whose sources may live in any
// peer's chunk, in one of the two arithmetic forms: chunk-pipelined (§4.3,
// Fig. 8) each chunk's edge stage runs as the chunk arrives, so compute on
// chunk k overlaps delivery of chunk k+1, and the partials are summed; or the
// block's CSR is walked once over the assembled rows. Overlap selects the
// first.
func (f *masterMirror) combineOwned(ws *workerState, run *layerRun, epoch, l int, sd nn.SumDecomposable,
	hPrev *autograd.Variable) *autograd.Variable {

	lp := &ws.plan.layers[l-1]
	tape := run.tape
	if ws.eng.opts.Overlap {
		agg := f.aggregateChunked(ws, run, epoch, l, sd, hPrev)
		return sd.Combine(tape, agg, tape.Gather(hPrev, lp.owned.selfRow), lp.owned.selfNorm)
	}
	hAll := hPrev
	if hRest := f.rest(ws, run, epoch, l); hRest != nil {
		hAll = tape.ConcatRows(hPrev, hRest)
	}
	ws.clock.Phase(obs.StageForward, l, "compute_owned",
		obs.Int("layer", l), obs.Int("rows", lp.owned.numDst()))
	return combineBlock(tape, sd, &lp.owned, hAll, hPrev)
}

// forwardBlocks runs any other layer: its vertex-level pre-transform (e.g.
// GAT's z = W·h) over every row universe exactly once, then Layer.Forward on
// each destination block.
func (f *masterMirror) forwardBlocks(ws *workerState, run *layerRun, epoch, l int, layer nn.Layer,
	prevVal *tensor.Tensor) (outOwned, outCached *autograd.Variable) {

	lp := &ws.plan.layers[l-1]
	tape := run.tape
	sc := ws.clock
	run.hPrev = tape.Leaf(prevVal, l > 1, "h_prev")
	pre := func(h *autograd.Variable) *autograd.Variable { return h }
	if pt, ok := layer.(nn.PreTransformer); ok {
		pre = func(h *autograd.Variable) *autograd.Variable {
			sc.Phase(obs.StageForward, l, "pre_transform", obs.Int("layer", l))
			return pt.PreTransform(tape, h, true, ws.rng)
		}
	}
	zPrev := pre(run.hPrev)
	if b := &lp.cached; b.numDst() > 0 {
		sc.Phase(obs.StageForward, l, "compute_cached",
			obs.Int("layer", l), obs.Int("rows", b.numDst()))
		outCached = ws.runBlock(tape, layer, b, zPrev, zPrev)
	}
	zAll := zPrev
	if hRest := f.rest(ws, run, epoch, l); hRest != nil {
		zAll = tape.ConcatRows(zPrev, pre(hRest))
	}
	sc.Phase(obs.StageForward, l, "compute_owned",
		obs.Int("layer", l), obs.Int("rows", lp.owned.numDst()))
	return ws.runBlock(tape, layer, &lp.owned, zAll, zPrev), outCached
}

// rest returns the rows of other workers the owned block reads, HAll rows
// numPrevRows and up, as one block: layer 1's held block as it stands, or the
// received chunks in HAll order (ascending peer). Nil when there is none.
func (f *masterMirror) rest(ws *workerState, run *layerRun, epoch, l int) *autograd.Variable {
	lp := &ws.plan.layers[l-1]
	if lp.numHAllRows == lp.numPrevRows {
		return nil
	}
	if f.held != nil {
		ws.clock.Phase(obs.StageForward, l, "tape_setup", obs.Int("layer", l))
		return run.tape.Leaf(f.held, false, "h_held")
	}
	byPeer := make([]*autograd.Variable, len(lp.recv))
	for _, j := range ws.peerOrder() {
		byPeer[j] = ws.recvChunk(run, epoch, l, j)
	}
	chunks := byPeer[:0]
	for _, c := range byPeer {
		if c != nil {
			chunks = append(chunks, c)
		}
	}
	ws.clock.Phase(obs.StageForward, l, "tape_setup", obs.Int("layer", l))
	return run.tape.ConcatRows(chunks...)
}

// chunk returns peer j's rows of HAll on their own: a view of the held block
// at layer 1, what recvChunk receives above it, nil when the layer reads
// nothing of peer j's.
func (f *masterMirror) chunk(ws *workerState, run *layerRun, epoch, l, j int) *autograd.Variable {
	lp := &ws.plan.layers[l-1]
	if len(lp.held[j]) > 0 {
		return run.tape.Constant(f.heldChunk(lp, j), "h_held")
	}
	return ws.recvChunk(run, epoch, l, j)
}

// recvChunk is the one way a remote row enters a master–mirror layer
// (GetFromDepNbr): it waits for peer j's representation message of layer l,
// unpacks its rows onto the tape as a leaf, notes the leaf in run.recv for
// the post-back, and returns it. Nil when the layer receives nothing from
// peer j.
func (ws *workerState) recvChunk(run *layerRun, epoch, l, j int) *autograd.Variable {
	verts := ws.plan.layers[l-1].recv[j]
	if len(verts) == 0 {
		return nil
	}
	ws.clock.Phase(obs.StageDepFetchRecv, l, "recv_chunk",
		obs.Int("layer", l), obs.Int("peer", j), obs.Int("rows", len(verts)))
	msg := ws.mb.Wait(comm.KindRep, epoch, l, 0, j)
	ws.clock.SetAttrs(obs.Int("bytes", msg.WireBytes()))
	rows, err := comm.UnpackRows(msg.Packed, len(verts), ws.eng.dims[l-1], ws.arena)
	if err != nil {
		panic(fmt.Sprintf("engine: layer %d rows from worker %d: %v", l, j, err))
	}
	leaf := run.tape.Leaf(rows, true, "h_chunk")
	run.recv = append(run.recv, recvLeaf{peer: j, v: leaf})
	return leaf
}

// aggregateChunked is §4.3's incremental aggregation of layer l's owned
// block: the local region's edge stage, then each peer chunk's as it
// arrives (arrivalOrder), so a chunk's edge stage overlaps the ones still in
// flight; the partials are summed left to right in schedule order, which
// keeps the sum's bits independent of arrival.
func (f *masterMirror) aggregateChunked(ws *workerState, run *layerRun, epoch, l int, sd nn.SumDecomposable,
	hPrev *autograd.Variable) *autograd.Variable {

	lp := &ws.plan.layers[l-1]
	tape := run.tape
	sc := ws.clock
	numDst := lp.owned.numDst()
	var partials []*autograd.Variable
	if g := &lp.ownedGroups[0]; len(g.srcLocal) > 0 {
		sc.Phase(obs.StageForward, l, "edge_stage",
			obs.Int("layer", l), obs.Int("peer", -1))
		partials = append(partials,
			sd.EdgeStage(tape, hPrev, g.srcLocal, g.edgeNorm, g.dstRow, numDst))
	}
	byPeer := make([]*autograd.Variable, len(lp.recv))
	for _, j := range ws.arrivalOrder() {
		// A chunk may be there for availability only: no owned edge reads it.
		rows := f.chunk(ws, run, epoch, l, j)
		if g := lp.groupOf[j]; rows != nil && g != nil {
			sc.Phase(obs.StageForward, l, "edge_stage",
				obs.Int("layer", l), obs.Int("peer", j))
			byPeer[j] = sd.EdgeStage(tape, rows, g.srcLocal, g.edgeNorm, g.dstRow, numDst)
		}
	}
	for _, j := range ws.peerOrder() {
		if byPeer[j] != nil {
			partials = append(partials, byPeer[j])
		}
	}

	sc.Phase(obs.StageForward, l, "vertex_stage",
		obs.Int("layer", l), obs.Int("rows", numDst))
	if len(partials) == 0 {
		// Plain while layer 1 is bound: the worker has no arena yet.
		return tape.Constant(ws.arena.Get(numDst, hPrev.Value.Cols()), "agg_zero")
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
	srcUniverse, selfUniverse *autograd.Variable) *autograd.Variable {
	ctx := &nn.ForwardCtx{
		Tape:     tape,
		Src:      srcUniverse,
		SrcRow:   b.srcRow,
		Self:     tape.Gather(selfUniverse, b.selfRow),
		Offsets:  b.offsets,
		EdgeDst:  b.dstRow,
		EdgeNorm: b.edgeNorm,
		SelfNorm: b.selfNorm,
		Training: true,
		RNG:      ws.rng,
	}
	return layer.Forward(ctx)
}

// sendReps enqueues and sends this worker's master rows needed by each peer
// at layer l, one send_dep_nbr phase per peer on sc — the worker's clock when
// the send runs inline, a lane of it when it runs in the background. The
// plan's sendRow says which of prevVal's rows go; they travel ReLU-packed.
// Payload buffers come from the arena: the receiver is done with them by the
// epoch barrier.
func (ws *workerState) sendReps(epoch, l int, prevVal *tensor.Tensor, sc *obs.StageClock) {
	lp := &ws.plan.layers[l-1]
	for _, j := range ws.peerOrder() {
		verts, rowOf := lp.send[j], lp.sendRow[j]
		if len(verts) == 0 {
			continue
		}
		sc.Phase(obs.StageDepFetchSend, l, "send_dep_nbr",
			obs.Int("layer", l), obs.Int("peer", j))
		buf := comm.NewEnqueuerArena(ws.eng.opts.LockFree, verts, prevVal.Cols(), ws.arena)
		tensor.ParallelRows(len(verts), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				buf.WriteRowAt(k, prevVal.Row(int(rowOf[k])))
			}
		})
		rows, ids := buf.Finish()
		msg := &comm.Message{
			From: ws.id, To: j, Kind: comm.KindRep,
			Epoch: epoch, Layer: l, Vertices: ids, Packed: comm.PackRows(rows, ws.arena),
		}
		sc.SetAttrs(obs.Int("bytes", msg.WireBytes()))
		ws.eng.fabric.Send(msg)
	}
}

// seedBackward runs layer l's main tape backward from the gradient of its
// output. For the top layer the loss already back-propagated on the same
// tape, so there is nothing to seed; for lower layers the seed is the upper
// layer's input gradient plus the mirror gradients of the master rows this
// worker sent it (none when the upper layer runs the slice dataflow: its
// backward already returned every gradient into hPrev.Grad).
func (ws *workerState) seedBackward(epoch, l int, runs []layerRun) {
	if l >= len(runs) {
		return
	}
	run := &runs[l-1]
	seed := runs[l].hPrev.Grad
	if seed == nil {
		seed = ws.arena.Get(run.out.Value.Rows(), run.out.Value.Cols())
	}
	ws.receiveMirrorGrads(epoch, l+1, seed, run.out.Value)
	ws.clock.Phase(obs.StageBackward, l, "tape_backward", obs.Int("layer", l))
	run.tape.Backward(run.out, seed)
}

// backward runs layer l's tape backward, then posts what it left in each
// received leaf's Grad to the leaf's peer, in arrival order (PostToDepNbr):
// the chunk's gradient at the received rows' non-zero positions.
func (*masterMirror) backward(ws *workerState, epoch, l int, runs []layerRun) {
	lp := &ws.plan.layers[l-1]
	run := &runs[l-1]
	ws.seedBackward(epoch, l, runs)
	if len(run.recv) == 0 {
		return
	}
	ws.clock.Phase(obs.StageMirrorScatter, l, "post_to_dep_nbr", obs.Int("layer", l))
	for _, leaf := range run.recv {
		grad := leaf.v.Grad
		if grad == nil {
			grad = ws.arena.Get(leaf.v.Value.Rows(), leaf.v.Value.Cols())
		}
		ws.eng.fabric.Send(&comm.Message{
			From: ws.id, To: leaf.peer, Kind: comm.KindGrad,
			Epoch: epoch, Layer: l, Vertices: lp.recv[leaf.peer],
			Packed: comm.PackGrad(grad, leaf.v.Value, ws.arena),
		})
	}
}

// receiveMirrorGrads waits for the gradient chunks of the masters this
// worker sent at layer l and accumulates them into seed's owned rows. sent
// is the layer-l input the rows went out of: each packed entry lands at its
// place among the non-zero entries of its row there.
// Waiting on mirror gradients is scatter-side time of the layer that sent the
// mirrors; the caller's next phase returns the clock to backward compute.
func (ws *workerState) receiveMirrorGrads(epoch, l int, seed, sent *tensor.Tensor) {
	lp := &ws.plan.layers[l-1]
	for _, j := range ws.peerOrder() {
		if len(lp.send[j]) == 0 {
			continue
		}
		ws.clock.Phase(obs.StageMirrorScatter, l, "recv_mirror_grads",
			obs.Int("layer", l), obs.Int("peer", j))
		msg := ws.mb.Wait(comm.KindGrad, epoch, l, 0, j)
		ws.clock.SetAttrs(obs.Int("bytes", msg.WireBytes()))
		rest := msg.Packed
		var err error
		for _, row := range lp.sendRow[j] {
			if rest, err = comm.AddPackedGrad(seed.Row(int(row)), sent.Row(int(row)), rest); err != nil {
				break
			}
		}
		if err != nil || len(rest) != 0 {
			panic(fmt.Sprintf("engine: layer %d gradients from worker %d do not fit the rows sent", l, j))
		}
	}
}
