package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
	"neutronstar/internal/graph"
	"neutronstar/internal/nn"
	"neutronstar/internal/partition"
	"neutronstar/internal/tensor"
)

// Chunk-group invariants: groups partition the owned block's edges exactly,
// local-group indices stay within prev rows, and peer-group indices stay
// within that peer's chunk.
func TestChunkGroupsPartitionOwnedEdges(t *testing.T) {
	ds := testDataset(t, 240, 7, 46)
	for _, mode := range []Mode{DepComm, Hybrid} {
		e, err := NewEngine(ds, Options{Workers: 4, Mode: mode, Model: nn.GCN, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range e.plans {
			for l := range p.layers {
				lp := &p.layers[l]
				total := 0
				for _, g := range lp.ownedGroups {
					total += len(g.srcLocal)
					if len(g.srcLocal) != len(g.dstRow) || len(g.srcLocal) != len(g.edgeNorm) {
						t.Fatalf("%s: ragged chunk group", mode)
					}
					for k, sr := range g.srcLocal {
						if g.peer < 0 {
							if int(sr) >= lp.numPrevRows {
								t.Fatalf("%s: local group row %d >= %d", mode, sr, lp.numPrevRows)
							}
						} else if chunk := len(lp.recv[g.peer]) + len(lp.held[g.peer]); int(sr) >= chunk {
							t.Fatalf("%s: peer %d group row %d >= chunk %d",
								mode, g.peer, sr, chunk)
						}
						if int(g.dstRow[k]) >= lp.owned.numDst() {
							t.Fatalf("%s: dst row out of block", mode)
						}
					}
				}
				if total != len(lp.owned.srcRow) {
					t.Fatalf("%s worker %d layer %d: groups cover %d of %d edges",
						mode, p.id, l+1, total, len(lp.owned.srcRow))
				}
				// Edge norms must carry over unchanged (sum preserved).
				var a, b float64
				for _, v := range lp.owned.edgeNorm {
					a += float64(v)
				}
				for _, g := range lp.ownedGroups {
					for _, v := range g.edgeNorm {
						b += float64(v)
					}
				}
				if diff := a - b; diff > 1e-3 || diff < -1e-3 {
					t.Fatalf("%s: edge norm mass changed: %v vs %v", mode, a, b)
				}
			}
		}
		e.Close()
	}
}

// Every peer with a non-empty recv or held list must have (at most) one chunk
// group, and peers with neither must have none.
func TestChunkGroupsMatchRecvLists(t *testing.T) {
	ds := testDataset(t, 200, 6, 47)
	e, err := newTuned(ds, Options{Workers: 3, Mode: DepComm, Model: nn.GCN, Seed: 5},
		partitionedBy(t, partition.Fennel))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, p := range e.plans {
		for l := range p.layers {
			lp := &p.layers[l]
			seen := map[int]bool{}
			for _, g := range lp.ownedGroups {
				if seen[g.peer] {
					t.Fatalf("duplicate group for peer %d", g.peer)
				}
				seen[g.peer] = true
				if g.peer >= 0 && len(lp.recv[g.peer])+len(lp.held[g.peer]) == 0 {
					t.Fatalf("group for peer %d with empty recv and held lists", g.peer)
				}
			}
			if !seen[-1] {
				t.Fatal("local group missing")
			}
		}
	}
}

// DepCache plans have exactly one (local) chunk group per layer: nothing is
// ever received.
func TestChunkGroupsDepCacheLocalOnly(t *testing.T) {
	ds := testDataset(t, 150, 5, 48)
	e, err := NewEngine(ds, Options{Workers: 3, Mode: DepCache, Model: nn.GCN, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, p := range e.plans {
		for l := range p.layers {
			groups := p.layers[l].ownedGroups
			if len(groups) != 1 || groups[0].peer != -1 {
				t.Fatalf("DepCache worker %d layer %d has %d groups", p.id, l+1, len(groups))
			}
		}
	}
}

// mirrorSpy keeps every mirror-gradient message a worker posts, every
// representation message it sends, and any other message but the gradient
// all-reduce's.
type mirrorSpy struct {
	comm.Network
	mu     sync.Mutex
	grads  []*comm.Message
	reps   []*comm.Message
	others []*comm.Message
}

func (s *mirrorSpy) Send(msg *comm.Message) {
	s.mu.Lock()
	switch msg.Kind {
	case comm.KindGrad:
		s.grads = append(s.grads, msg)
	case comm.KindRep:
		s.reps = append(s.reps, msg)
	case comm.KindAllReduce:
	default:
		s.others = append(s.others, msg)
	}
	s.mu.Unlock()
	s.Network.Send(msg)
}

// TestPlanOwnsRowPositions holds the master–mirror contract on a 3-layer
// Hybrid plan with a forced 50 % split, over the three forward configurations:
// sendRow[j][k] is the position of send[j][k] in the sender's owned block, and
// every posted mirror gradient is what the tape's backward left in one of the
// posting worker's h_chunk leaves — or, for a chunk no owned edge read, zeros
// of the leaf's shape. The post is packed: decoded against the leaf's rows,
// which are the decoded forward message, it equals the leaf's Grad at every
// non-zero position of those rows.
func TestPlanOwnsRowPositions(t *testing.T) {
	ds := testDataset(t, 220, 5, 43)
	for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT} {
		for name, variant := range staticVariants {
			t.Run(fmt.Sprintf("%s/%s", kind, name), func(t *testing.T) {
				opts := Options{Workers: 4, Mode: Hybrid, Model: kind, Layers: 3, Seed: 44}
				variant(&opts)
				e, err := newTuned(ds, opts, forcedRatio(0.5))
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				sent := 0
				for _, p := range e.plans {
					for l := range p.layers {
						lp := &p.layers[l]
						sends := false
						for j, verts := range lp.send {
							sends = sends || len(verts) > 0
							if len(lp.sendRow[j]) != len(verts) {
								t.Fatalf("worker %d layer %d peer %d: %d rows for %d vertices",
									p.id, l+1, j, len(lp.sendRow[j]), len(verts))
							}
							for k, v := range verts {
								if p.owned[lp.sendRow[j][k]] != v {
									t.Fatalf("worker %d layer %d peer %d: sendRow[%d] = %d holds vertex %d, not %d",
										p.id, l+1, j, k, lp.sendRow[j][k], p.owned[lp.sendRow[j][k]], v)
								}
							}
							sent += len(verts)
						}
						if lp.sends != sends {
							t.Fatalf("worker %d layer %d: sends = %v", p.id, l+1, lp.sends)
						}
					}
				}
				if sent == 0 {
					t.Fatal("the plan sends nothing")
				}

				spy := &mirrorSpy{Network: e.fabric}
				e.fabric = spy
				var log tapeLog
				log.attach(e)
				e.Train(1)

				var leaves []chunkLeaf
				for k, tp := range log.tapes {
					for _, v := range tp.Nodes() {
						if v.Name() == "h_chunk" {
							leaves = append(leaves, chunkLeaf{worker: log.worker[k], v: v})
						}
					}
				}
				if len(spy.grads) == 0 || len(spy.grads) != len(leaves) {
					t.Fatalf("%d gradient messages for %d h_chunk leaves", len(spy.grads), len(leaves))
				}
				used := map[*autograd.Variable]bool{}
				for _, msg := range spy.grads {
					leaf := postedLeaf(t, e, spy, leaves, used, msg)
					if leaf == nil {
						t.Fatalf("worker %d posted layer %d peer %d a gradient no h_chunk leaf holds",
							msg.From, msg.Layer, msg.To)
					}
					used[leaf] = true
				}
			})
		}
	}
}

// chunkLeaf is an h_chunk leaf and the worker whose tape holds it.
type chunkLeaf struct {
	worker int
	v      *autograd.Variable
}

// postedLeaf returns the unused h_chunk leaf whose gradient msg posts, nil
// when there is none: a leaf of the posting worker holding the post's forward
// message's rows — several receivers may hold equal rows of one peer's block
// — against which the post must decode to the leaf's Grad.
func postedLeaf(t *testing.T, e *Engine, spy *mirrorSpy, leaves []chunkLeaf,
	used map[*autograd.Variable]bool, msg *comm.Message) *autograd.Variable {

	t.Helper()
	i := slices.IndexFunc(spy.reps, func(r *comm.Message) bool {
		return r.From == msg.To && r.To == msg.From && r.Layer == msg.Layer
	})
	if i < 0 {
		t.Fatalf("worker %d posted layer %d peer %d a gradient for rows never sent", msg.From, msg.Layer, msg.To)
	}
	fwd, err := comm.UnpackRows(spy.reps[i].Packed, len(msg.Vertices), e.dims[msg.Layer-1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, leaf := range leaves {
		v := leaf.v
		if leaf.worker != msg.From || used[v] || !v.Value.Equal(fwd) {
			continue
		}
		got, rest := tensor.New(fwd.Rows(), fwd.Cols()), msg.Packed
		for r := range fwd.Rows() {
			if rest, err = comm.AddPackedGrad(got.Row(r), fwd.Row(r), rest); err != nil {
				t.Fatal(err)
			}
		}
		if len(rest) != 0 {
			t.Fatalf("%d gradient words past the rows sent", len(rest))
		}
		want := v.Grad
		if want == nil {
			want = tensor.New(fwd.Rows(), fwd.Cols())
		}
		for k, f := range fwd.Data() {
			if f != 0 && got.Data()[k] != want.Data()[k] {
				t.Fatalf("worker %d layer %d peer %d: element %d posted %v, the leaf's Grad holds %v",
					msg.From, msg.Layer, msg.To, k, got.Data()[k], want.Data()[k])
			}
		}
		return v
	}
	return nil
}

// TestNewRejectsUnrectifiedSender: mirror rows above layer 1 travel packed
// and their gradient post leaves out the rows' +0 entries, exact only behind
// a ReLU. A GCN whose hidden layer has no activation is rejected under a plan
// that sends those rows, whole blocks under Broadcast included, and accepted
// where nothing is packed: a DepCache plan that sends nothing.
func TestNewRejectsUnrectifiedSender(t *testing.T) {
	ds := testDataset(t, 150, 5, 48)
	plans := map[string][]*workerPlan{}
	var dims []int
	for name, opts := range map[string]Options{
		"depcomm":   {Mode: DepComm},
		"broadcast": {Mode: DepComm, Broadcast: true},
		"depcache":  {Mode: DepCache},
	} {
		opts.Workers, opts.Model, opts.Seed = 3, nn.GCN, 7
		e, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		if err := checkRectified(e.Model(), e.plans); err != nil {
			t.Fatalf("%s: the model NewModel builds is rejected: %v", name, err)
		}
		plans[name], dims = e.plans, e.dims
	}
	rng := tensor.NewRNG(1)
	linear := &nn.Model{Layers: []nn.Layer{
		nn.NewGCNLayer(dims[0], dims[1], false, 0, rng),
		nn.NewGCNLayer(dims[1], dims[2], false, 0, rng),
	}}
	for _, name := range []string{"depcomm", "broadcast"} {
		if err := checkRectified(linear, plans[name]); err == nil {
			t.Fatalf("a %s plan sends an unrectified layer's rows packed", name)
		}
	}
	if err := checkRectified(linear, plans["depcache"]); err != nil {
		t.Fatalf("DepCache: %v", err)
	}
}

// TestBroadcastSendsWholeBlocksPacked: Broadcast is a send set, not a second
// exchange. On every layer that receives rows, a peer chunk that is not empty
// is that peer's whole owned list; layer 1 holds the rows the plain DepComm
// plan holds; and every dependency message of an epoch is a packed KindRep or
// KindGrad with no dense rows.
func TestBroadcastSendsWholeBlocksPacked(t *testing.T) {
	ds := testDataset(t, 220, 5, 43)
	build := func(broadcast bool) *Engine {
		e, err := NewEngine(ds, Options{Workers: 4, Mode: DepComm, Model: nn.GCN, Layers: 3, Seed: 44, Broadcast: broadcast})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	plain, e := build(false), build(true)
	whole := 0
	for i, p := range e.plans {
		for l := range p.layers {
			lp := &p.layers[l]
			for j, verts := range lp.recv {
				if l == 0 && len(verts) > 0 {
					t.Fatalf("worker %d receives layer-1 rows from worker %d", i, j)
				}
				if len(verts) > 0 && !slices.Equal(verts, e.plans[j].owned) {
					t.Fatalf("worker %d layer %d: %d rows from worker %d, which owns %d",
						i, l+1, len(verts), j, len(e.plans[j].owned))
				}
				whole += len(verts)
			}
		}
		for j, verts := range p.layers[0].held {
			if !slices.Equal(verts, plain.plans[i].layers[0].held[j]) {
				t.Fatalf("worker %d holds %d layer-1 rows of worker %d, the DepComm plan %d",
					i, len(verts), j, len(plain.plans[i].layers[0].held[j]))
			}
		}
	}
	if whole == 0 {
		t.Fatal("the plan receives nothing")
	}

	spy := &mirrorSpy{Network: e.fabric}
	e.fabric = spy
	e.Train(1)
	if len(spy.reps) == 0 || len(spy.grads) != len(spy.reps) || len(spy.others) > 0 {
		t.Fatalf("%d representation, %d gradient and %d other messages",
			len(spy.reps), len(spy.grads), len(spy.others))
	}
	for _, msg := range slices.Concat(spy.reps, spy.grads) {
		if msg.Packed == nil || msg.Rows != nil {
			t.Fatalf("%s message %d→%d layer %d: packed %d words, dense rows %v",
				msg.Kind, msg.From, msg.To, msg.Layer, len(msg.Packed), msg.Rows != nil)
		}
	}
}

// TestDepTPWithoutSliceIsWholeBlockDepComm: a tensor-parallel layer of a
// model whose edge stage mixes columns is a master–mirror layer over every
// peer's whole owned block, held at layer 1 and received packed above it.
// On the pin configuration every worker depends on every peer, so DepComm
// under Broadcast widens each chunk to the same whole blocks, and the two
// policies train to the same bits over the same messages.
func TestDepTPWithoutSliceIsWholeBlockDepComm(t *testing.T) {
	costs := costmodel.Costs{Tv: 2e-8, Te: 1e-8, Tc: 8e-8}
	for _, model := range []nn.ModelKind{nn.GAT, nn.SAGE} {
		t.Run(string(model), func(t *testing.T) {
			opts := Options{Workers: 4, Mode: DepTP, Model: model, Seed: 11}
			e, err := NewEngine(testDataset(t, 300, 6, 3), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			part := e.planner.Part
			for i := range e.plans {
				deps := make([]bool, part.NumParts)
				for _, v := range part.Parts[i] {
					for _, u := range e.ds.Graph.InNeighbors(v) {
						deps[part.Assign[u]] = true
					}
				}
				for j, dep := range deps {
					if j != i && !dep {
						t.Fatalf("worker %d has no dependency in worker %d: Broadcast would not widen its chunk", i, j)
					}
				}
			}
			for i, p := range e.plans {
				for l := range p.layers {
					lp := &p.layers[l]
					if _, ok := lp.flow.(*masterMirror); !ok {
						t.Fatalf("worker %d layer %d runs %T, want *masterMirror", i, l+1, lp.flow)
					}
					rows := lp.recv
					if l == 0 {
						rows = lp.held
					}
					for j, verts := range rows {
						want := part.Parts[j]
						if j == i {
							want = nil
						}
						if !slices.Equal(verts, want) {
							t.Fatalf("worker %d layer %d: %d rows of worker %d, want its whole block of %d", i, l+1, len(verts), j, len(want))
						}
					}
				}
			}

			tp := runPinned(t, opts, costs, 0, 5)
			opts.Mode, opts.Broadcast = DepComm, true
			roc := runPinned(t, opts, costs, 0, 5)
			if !slices.Equal(tp.losses, roc.losses) {
				t.Fatalf("losses %v, DepComm+Broadcast %v", tp.losses, roc.losses)
			}
			if tp.params != roc.params || tp.bytes != roc.bytes || tp.msgs != roc.msgs {
				t.Fatalf("params %s, %d B, %d msgs an epoch; DepComm+Broadcast %s, %d B, %d msgs",
					tp.params, tp.bytes, tp.msgs, roc.params, roc.bytes, roc.msgs)
			}
		})
	}
}

// TestBlocksReadTheGCNTable: every block a GCN plan builds — owned, cached
// and DepTP's shared slice block — carries graph.GCNNormCoefficients' own
// bits: the k-th edge of destination v is the table's edge InOffsets()[v]+k,
// and v's self coefficient the table's self entry.
func TestBlocksReadTheGCNTable(t *testing.T) {
	ds := testDataset(t, 240, 7, 46)
	g := ds.Graph
	edgeNorm, selfNorm := graph.GCNNormCoefficients(g)
	off := g.InOffsets()
	edgesIn := map[string]int{} // block kind -> edges checked
	check := func(what, kind string, b *blockPlan) {
		t.Helper()
		edgesIn[kind] += len(b.edgeNorm)
		for r, v := range b.dsts {
			if math.Float32bits(b.selfNorm[r]) != math.Float32bits(selfNorm[v]) {
				t.Fatalf("%s: self coefficient of %d is %v, table %v", what, v, b.selfNorm[r], selfNorm[v])
			}
			edges := b.edgeNorm[b.offsets[r]:b.offsets[r+1]]
			if len(edges) != g.InDegree(v) {
				t.Fatalf("%s: destination %d has %d edges, in-degree %d", what, v, len(edges), g.InDegree(v))
			}
			for k, c := range edges {
				if want := edgeNorm[off[v]+int64(k)]; math.Float32bits(c) != math.Float32bits(want) {
					t.Fatalf("%s: edge %d of destination %d is %v, table %v", what, k, v, c, want)
				}
			}
		}
	}
	for _, mode := range []Mode{DepCache, DepComm, Hybrid, DepTP} {
		e, err := NewEngine(ds, Options{Workers: 3, Mode: mode, Model: nn.GCN, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range e.plans {
			for l := range p.layers {
				lp := &p.layers[l]
				what := fmt.Sprintf("%s worker %d layer %d", mode, p.id, l+1)
				if f, ok := lp.flow.(*tpSlice); ok {
					check(what, "slice", &f.shared.all)
					continue
				}
				check(what, "owned", &lp.owned)
				check(what, "cached", &lp.cached)
			}
		}
		e.Close()
	}
	for _, kind := range []string{"owned", "cached", "slice"} {
		if edgesIn[kind] == 0 {
			t.Fatalf("no %s block edge was checked", kind)
		}
	}
}
