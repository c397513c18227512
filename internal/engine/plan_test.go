package engine

import (
	"fmt"
	"sync"
	"testing"

	"neutronstar/internal/comm"
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

// gradSpy keeps every mirror-gradient message a worker posts.
type gradSpy struct {
	comm.Network
	mu    sync.Mutex
	grads []*comm.Message
}

func (s *gradSpy) Send(msg *comm.Message) {
	if msg.Kind == comm.KindGrad {
		s.mu.Lock()
		s.grads = append(s.grads, msg)
		s.mu.Unlock()
	}
	s.Network.Send(msg)
}

// TestPlanOwnsRowPositions holds the master–mirror contract on a 3-layer
// Hybrid plan with a forced 50 % split, over the three forward configurations:
// sendRow[j][k] is the position of send[j][k] in the sender's owned block, and
// every posted mirror gradient is the very tensor the tape's backward left in
// an h_chunk leaf's Grad — no copy, no hand assembly — or, for a chunk no
// owned edge read, zeros of the leaf's shape. The pool is off, so a tensor's
// identity is its own.
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

				spy := &gradSpy{Network: e.fabric}
				e.fabric = spy
				var log tapeLog
				log.attach(e)
				e.Train(1)

				left := map[*tensor.Tensor]bool{} // Grads the backward left in h_chunk leaves
				unread := 0                       // h_chunk leaves it left none in
				for _, tp := range log.tapes {
					for _, v := range tp.Nodes() {
						if v.Name() != "h_chunk" {
							continue
						}
						if v.Grad == nil {
							unread++
						} else {
							left[v.Grad] = true
						}
					}
				}
				if len(spy.grads) == 0 || len(spy.grads) != len(left)+unread {
					t.Fatalf("%d gradient messages for %d h_chunk leaves", len(spy.grads), len(left)+unread)
				}
				for _, msg := range spy.grads {
					if left[msg.Rows] {
						delete(left, msg.Rows)
						continue
					}
					unread--
					for _, x := range msg.Rows.Data() {
						if x != 0 {
							t.Fatalf("worker %d posted layer %d peer %d a gradient no h_chunk leaf holds",
								msg.From, msg.Layer, msg.To)
						}
					}
				}
				if len(left) != 0 || unread != 0 {
					t.Fatalf("%d leaf gradients never posted, %d zero blocks unaccounted for", len(left), unread)
				}
			})
		}
	}
}
