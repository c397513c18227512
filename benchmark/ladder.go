package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/graph"
	"neutronstar/internal/hybrid"
	"neutronstar/internal/nn"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// The ladder calls each layer of the system directly, from the outside, at
// the shapes and index arrays of the workload's worker-0 block, and reports
// the median time of each call. Its rungs are what an optimisation of one
// layer should move first; README.md says which end-to-end metric each rung
// feeds on which workload.

// rung repeats fn until minTime has passed (at least three times on a full
// run) and returns the median duration of one call in nanoseconds. prep, when
// non-nil, runs before every call outside the timing. One span covers the
// whole rung; its Count is the number of calls.
func rung(cfg *runConfig, parent *openSpan, name string, prep, fn func()) float64 {
	minCalls := 3
	if cfg.sz.quick {
		minCalls = 1
	}
	sp := cfg.tr.start(name, parent)
	var ns []float64
	var total time.Duration
	for len(ns) < minCalls || total < cfg.sz.rungTime {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		total += d
		ns = append(ns, float64(d.Nanoseconds()))
	}
	sp.endCount(len(ns))
	return median(ns)
}

// block is worker 0's share of a ladderWorkers-way chunk partition, in the
// form the engine hands to a layer: a row universe (owned vertices first,
// then the remote sources it depends on) and per-edge index arrays in
// destination-grouped order.
type block struct {
	part     *partition.Partition
	owned    []int32
	universe []int32 // global ids; universe[:len(owned)] == owned
	srcRow   []int32 // per edge: source's row in universe
	dstRow   []int32 // per edge: destination's index in owned
	selfRow  []int32
	offsets  []int32
	edgeNorm []float32
	selfNorm []float32
	// fromPeer[p] lists the remote rows owned by worker p (ascending ids).
	fromPeer [][]int32
}

func buildBlock(g *graph.Graph) (*block, error) {
	part, err := partition.New(partition.Chunk, g, ladderWorkers)
	if err != nil {
		return nil, fmt.Errorf("partition.New: %w", err)
	}
	b := &block{part: part, owned: part.Parts[0], fromPeer: make([][]int32, ladderWorkers)}
	row := make(map[int32]int32, 2*len(b.owned))
	for i, v := range b.owned {
		row[v] = int32(i)
	}
	b.universe = append(b.universe, b.owned...)
	var remote []int32
	for _, v := range b.owned {
		for _, u := range g.InNeighbors(v) {
			if _, ok := row[u]; !ok {
				row[u] = -1
				remote = append(remote, u)
			}
		}
	}
	sort.Slice(remote, func(i, j int) bool { return remote[i] < remote[j] })
	for _, u := range remote {
		row[u] = int32(len(b.universe))
		b.universe = append(b.universe, u)
		b.fromPeer[part.Owner(u)] = append(b.fromPeer[part.Owner(u)], u)
	}
	allEdgeNorm, allSelfNorm := graph.GCNNormCoefficients(g)
	inOff := g.InOffsets()
	b.offsets = make([]int32, 1, len(b.owned)+1)
	for i, v := range b.owned {
		b.selfRow = append(b.selfRow, int32(i))
		b.selfNorm = append(b.selfNorm, allSelfNorm[v])
		for k, u := range g.InNeighbors(v) {
			b.srcRow = append(b.srcRow, row[u])
			b.dstRow = append(b.dstRow, int32(i))
			b.edgeNorm = append(b.edgeNorm, allEdgeNorm[inOff[v]+int64(k)])
		}
		b.offsets = append(b.offsets, int32(len(b.srcRow)))
	}
	return b, nil
}

// typicalMessage returns the vertex list of the median-sized dependency
// message worker 0 receives (one per peer and layer under DepComm).
func (b *block) typicalMessage() []int32 {
	var msgs [][]int32
	for _, m := range b.fromPeer {
		if len(m) > 0 {
			msgs = append(msgs, m)
		}
	}
	if len(msgs) == 0 {
		return b.owned[:1]
	}
	sort.Slice(msgs, func(i, j int) bool { return len(msgs[i]) < len(msgs[j]) })
	return msgs[len(msgs)/2]
}

// hybridMode maps the engine's policy names onto the planner's.
func hybridMode(m engine.Mode) hybrid.Mode {
	switch m {
	case engine.DepCache:
		return hybrid.ModeAllCache
	case engine.DepComm:
		return hybrid.ModeAllComm
	case engine.DepTP:
		return hybrid.ModeAllTP
	case engine.DepRep:
		return hybrid.ModeAllRep
	case engine.Hybrid3:
		return hybrid.ModeHybrid3
	case engine.Hybrid4:
		return hybrid.ModeHybrid4
	default:
		return hybrid.ModeHybrid
	}
}

// runLadder measures every rung for w on ds and stores the metrics in res. It
// returns one worker's forward + backward time over both layers, in seconds,
// which the engine-level reconcile ratio needs.
func runLadder(w workload, ds *dataset.Dataset, cfg *runConfig, res *result, parent *openSpan) (layerSeconds float64, err error) {
	g := ds.Graph
	dims := []int{featureDim, hiddenDim, numClasses}
	rng := tensor.NewRNG(cfg.seed ^ 0x1ADDE2)

	// dataset / graph / partition: the set-up path.
	spec := w.spec(cfg.seed, cfg.sz)
	res.set("dataset.generate_ms", rung(cfg, parent, "dataset.Load", nil, func() { dataset.Load(spec) })/1e6, "ms")
	edges := g.Edges()
	var fromEdgesErr error
	res.set("graph.from_edges_ms", rung(cfg, parent, "graph.FromEdges", nil, func() {
		_, fromEdgesErr = graph.FromEdges(g.NumVertices(), edges)
	})/1e6, "ms")
	if fromEdgesErr != nil {
		return 0, fmt.Errorf("graph.FromEdges: %w", fromEdgesErr)
	}
	seeds := make([]int32, requestVertices)
	res.set("graph.khop32_us", rung(cfg, parent, "graph.KHopInClosure",
		func() {
			for i := range seeds {
				seeds[i] = int32(rng.Intn(g.NumVertices()))
			}
		},
		func() { g.KHopInClosure(seeds, numLayers) })/1e3, "us")

	var partErr error
	res.set("partition.build_ms", rung(cfg, parent, "partition.New", nil, func() {
		_, partErr = partition.New(partition.Chunk, g, ladderWorkers)
	})/1e6, "ms")
	if partErr != nil {
		return 0, fmt.Errorf("partition.New: %w", partErr)
	}
	b, err := buildBlock(g)
	if err != nil {
		return 0, err
	}
	sp := cfg.tr.start("partition.Evaluate+BuildReplicas", parent)
	res.set("partition.edge_cut_share", partition.Evaluate(b.part, g).CutRatio, "ratio")
	res.set("partition.replica_factor", partition.BuildReplicas(g, b.part, numLayers).Factor(), "ratio")
	sp.end()

	// costmodel / hybrid: probe and plan.
	var costs costmodel.Costs
	res.set("costmodel.probe_ms", rung(cfg, parent, "costmodel.Probe", nil, func() {
		costs = costmodel.Probe(w.profile.BytesPerSec, w.profile.Latency)
	})/1e6, "ms")
	planner := &hybrid.Planner{
		Graph: g, Part: b.part, Dims: dims, Costs: costs,
		RepBudget: -1, RepCompression: 1, SliceTP: nn.SliceSeparable(w.model),
	}
	var planErr error
	res.set("hybrid.plan_ms", rung(cfg, parent, "hybrid.Planner.DecideAll", nil, func() {
		_, planErr = planner.DecideAll(hybridMode(w.mode))
	})/1e6, "ms")
	if planErr != nil {
		return 0, fmt.Errorf("hybrid.Planner.DecideAll: %w", planErr)
	}

	ladderTensor(b, cfg, res, rng, parent)
	ladderAutograd(b, cfg, res, rng, parent)
	layerSeconds = ladderNN(w, b, dims, cfg, res, rng, parent)
	if err := ladderComm(w, b, dims, cfg, res, rng, parent); err != nil {
		return 0, err
	}
	return layerSeconds, nil
}

// ladderTensor times the three GEMM forms at the two layer shapes of one
// worker: [owned × F]·[F × H] and [owned × H]·[H × C]. Each metric is the sum
// over both shapes, i.e. one worker's GEMM work of that form per epoch.
func ladderTensor(b *block, cfg *runConfig, res *result, rng *tensor.RNG, parent *openSpan) {
	n := len(b.owned)
	type shape struct{ in, out int }
	var mm, ta, tb, flops float64
	for _, s := range []shape{{featureDim, hiddenDim}, {hiddenDim, numClasses}} {
		a := tensor.RandNormal(n, s.in, 0, 1, rng)
		wt := tensor.RandNormal(s.in, s.out, 0, 1, rng)
		grad := tensor.RandNormal(n, s.out, 0, 1, rng)
		out := tensor.New(n, s.out)
		dW := tensor.New(s.in, s.out)
		dA := tensor.New(n, s.in)
		mm += rung(cfg, parent, "tensor.MatMulInto", nil, func() { tensor.MatMulInto(out, a, wt) })
		ta += rung(cfg, parent, "tensor.MatMulTAInto", nil, func() { tensor.MatMulTAInto(dW, a, grad) })
		tb += rung(cfg, parent, "tensor.MatMulTBInto", nil, func() { tensor.MatMulTBInto(dA, grad, wt) })
		flops += 2 * float64(n) * float64(s.in) * float64(s.out)
	}
	res.set("tensor.matmul_ns", mm, "ns")
	res.set("tensor.matmul_ta_ns", ta, "ns")
	res.set("tensor.matmul_tb_ns", tb, "ns")
	res.set("tensor.matmul_gflops", flops/mm, "GFLOP/s")
}

// ladderAutograd times the sparse tape ops over worker 0's real edge index
// at hidden width.
func ladderAutograd(b *block, cfg *runConfig, res *result, rng *tensor.RNG, parent *openSpan) {
	n, numEdges := len(b.owned), len(b.srcRow)
	x := tensor.RandNormal(len(b.universe), hiddenDim, 0, 1, rng)
	edgeRows := tensor.RandNormal(numEdges, hiddenDim, 0, 1, rng)
	scores := tensor.RandNormal(numEdges, 1, 0, 1, rng)
	seed := tensor.New(n, hiddenDim)
	seed.Fill(1)

	var tape *autograd.Tape
	var in, root *autograd.Variable
	res.set("autograd.gather_ns", rung(cfg, parent, "autograd.Tape.Gather",
		func() { tape = autograd.NewTape(); in = tape.Constant(x, "x") },
		func() { tape.Gather(in, b.srcRow) }), "ns")
	res.set("autograd.scatter_add_ns", rung(cfg, parent, "autograd.Tape.ScatterAddRows",
		func() { tape = autograd.NewTape(); in = tape.Constant(edgeRows, "edges") },
		func() { tape.ScatterAddRows(in, b.dstRow, n) }), "ns")
	res.set("autograd.segment_softmax_ns", rung(cfg, parent, "autograd.Tape.SegmentSoftmax",
		func() { tape = autograd.NewTape(); in = tape.Constant(scores, "scores") },
		func() { tape.SegmentSoftmax(in, b.offsets) }), "ns")
	res.set("autograd.backward_ns", rung(cfg, parent, "autograd.Tape.Backward",
		func() {
			tape = autograd.NewTape()
			root = tape.ScatterAddRows(tape.Gather(tape.Leaf(x, true, "x"), b.srcRow), b.dstRow, n)
		},
		func() { tape.Backward(root, seed) }), "ns")
}

// ladderNN times one forward and one backward of each of the workload's two
// layers on worker 0's block, assembled the way the engine assembles it
// (pre-transform, edge-source gather, self gather, Layer.Forward), and one
// optimiser step over the model's parameters. It returns forward + backward
// over both layers in seconds.
func ladderNN(w workload, b *block, dims []int, cfg *runConfig, res *result, rng *tensor.RNG, parent *openSpan) float64 {
	model := nn.MustNewModel(w.model, dims, 0, modelSeed)
	n := len(b.owned)
	var fwd, bwd float64
	for li, layer := range model.Layers {
		h := tensor.RandNormal(len(b.universe), dims[li], 0, 1, rng)
		seed := tensor.New(n, dims[li+1])
		seed.Fill(1)
		var tape *autograd.Tape
		var out *autograd.Variable
		forward := func() {
			tape = autograd.NewTape()
			rows := tape.Leaf(h, true, "h")
			if pt, ok := layer.(nn.PreTransformer); ok {
				rows = pt.PreTransform(tape, rows, true, rng)
			}
			out = layer.Forward(&nn.ForwardCtx{
				Tape:     tape,
				EdgeSrc:  tape.Gather(rows, b.srcRow),
				Self:     tape.Gather(rows, b.selfRow),
				Offsets:  b.offsets,
				EdgeDst:  b.dstRow,
				EdgeNorm: b.edgeNorm,
				SelfNorm: b.selfNorm,
				Training: true,
				RNG:      rng,
			})
		}
		unbind := func() {
			for _, p := range layer.Params() {
				p.CollectGrad()
			}
		}
		fwd += rung(cfg, parent, "nn.Layer.Forward", nil, func() { forward(); unbind() })
		bwd += rung(cfg, parent, "nn.Layer backward", forward, func() { tape.Backward(out, seed); unbind() })
	}
	res.set("nn.layer_fwd_ms", fwd/1e6, "ms")
	res.set("nn.layer_bwd_ms", bwd/1e6, "ms")

	opt := nn.NewAdam(0.01)
	params := model.Params()
	res.set("nn.adam_step_us", rung(cfg, parent, "nn.Adam.Step", nil, func() { opt.Step(params) })/1e3, "us")
	return (fwd + bwd) / 1e9
}

// ladderComm times the fabric at the workload's network profile: one
// dependency message of typical size through the in-process fabric and
// through the loopback-TCP fabric (the only public route through the wire
// codec), a ring all-reduce over the model's parameter count, and the
// lock-free enqueue of that message's rows.
func ladderComm(w workload, b *block, dims []int, cfg *runConfig, res *result, rng *tensor.RNG, parent *openSpan) error {
	verts := b.typicalMessage()
	rows := tensor.RandNormal(len(verts), hiddenDim, 0, 1, rng)
	seq := 0
	oneWay := func(net comm.Network) func() {
		return func() {
			seq++
			net.Send(&comm.Message{From: 1, To: 0, Kind: comm.KindRep, Epoch: 0, Layer: 1, Seq: seq, Vertices: verts, Rows: rows})
			net.Mailbox(0).Wait(comm.KindRep, 0, 1, seq, 1)
		}
	}
	fabric := comm.NewFabric(ladderWorkers, w.profile, nil)
	msgNS := rung(cfg, parent, "comm.Fabric.Send+Wait", nil, oneWay(fabric))
	wire := (&comm.Message{Vertices: verts, Rows: rows}).WireBytes()
	res.set("comm.fabric_msg_us", msgNS/1e3, "us")
	res.set("comm.fabric_mb_per_s", float64(wire)/1e6/(msgNS/1e9), "MB/s")

	numParams := 0
	for _, p := range nn.MustNewModel(w.model, dims, 0, modelSeed).Params() {
		numParams += p.NumElements()
	}
	bufs := make([][]float32, ladderWorkers)
	for i := range bufs {
		bufs[i] = make([]float32, numParams)
	}
	tag := 1 << 20 // clear of the Epoch values the message rung uses
	res.set("comm.allreduce_us", rung(cfg, parent, "comm.RingAllReduce", nil, func() {
		tag++
		var wg sync.WaitGroup
		for id := 0; id < ladderWorkers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				comm.RingAllReduce(fabric, id, ladderWorkers, tag, bufs[id], nil)
			}(id)
		}
		wg.Wait()
	})/1e3, "us")
	fabric.Close()

	res.set("comm.enqueue_ns_per_row", rung(cfg, parent, "comm.Enqueuer.WriteRowAt+Finish", nil, func() {
		enq := comm.NewEnqueuer(true, verts, hiddenDim)
		for i := range verts {
			enq.WriteRowAt(i, rows.Row(i))
		}
		enq.Finish()
	})/float64(len(verts)), "ns")

	tcp, err := comm.NewTCPFabric(ladderWorkers, w.profile, nil)
	if err != nil {
		return fmt.Errorf("comm.NewTCPFabric: %w", err)
	}
	res.set("comm.tcp_msg_us", rung(cfg, parent, "comm.TCPFabric.Send+Wait", nil, oneWay(tcp))/1e3, "us")
	tcp.Close()
	return nil
}
