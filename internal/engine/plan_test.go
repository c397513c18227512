package engine

import (
	"testing"

	"neutronstar/internal/nn"
	"neutronstar/internal/partition"
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
	e, err := NewEngine(ds, Options{Workers: 3, Mode: DepComm, Model: nn.GCN, Seed: 5,
		Partitioner: partition.Fennel})
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
