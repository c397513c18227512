package engine

import (
	"sync"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/nn"
)

// TestTrainingEpochMaterialisesNoEdgeTensor keeps the per-edge tensors from
// creeping back: in a training epoch of the sum-type models no tape of any
// worker may record a gather / mul_colvec / broadcast_col_mul node that is
// one multi-column row per edge of a block, a chunk group or the
// tensor-parallel full-graph block. (GAT's per-edge score columns are Ex1 and
// legitimate; so are per-vertex gathers such as Self.) Each row is a path
// that composed the three decoupled ops before the fused kernel: block
// Forward, the chunk-pipelined edge stage, the DepTP slice edge stage.
func TestTrainingEpochMaterialisesNoEdgeTensor(t *testing.T) {
	ds := testDataset(t, 300, 6, 3)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"gcn-hybrid-blocks", Options{Workers: 4, Mode: Hybrid, Model: nn.GCN, Seed: 11}},
		{"gcn-depcomm-chunked", Options{Workers: 4, Mode: DepComm, Model: nn.GCN, Seed: 11, Overlap: true}},
		{"gin-hybrid-chunked", Options{Workers: 4, Mode: Hybrid, Model: nn.GIN, Seed: 11, Overlap: true}},
		{"gcn-deptp-slice", Options{Workers: 4, Mode: DepTP, Model: nn.GCN, Seed: 11}},
		{"gat-hybrid-blocks", Options{Workers: 4, Mode: Hybrid, Model: nn.GAT, Seed: 11}},
		{"gat-deptp-whole-block", Options{Workers: 4, Mode: DepTP, Model: nn.GAT, Seed: 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// No pool: arena tensors are recycled (and reshaped) at the barrier,
			// plain ones keep the shapes the tape recorded.
			e, err := NewEngine(ds, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var mu sync.Mutex
			var tapes []*autograd.Tape
			e.tapeHook = func(_ int, tp *autograd.Tape) {
				mu.Lock()
				tapes = append(tapes, tp)
				mu.Unlock()
			}
			e.Train(1)

			// Row counts that mean "one row per edge", minus any that is also a
			// legitimate per-vertex row count somewhere in the plan.
			edgeRows, vertexRows := map[int]bool{}, map[int]bool{}
			addBlock := func(b *blockPlan) {
				edgeRows[len(b.srcRow)] = true
				vertexRows[b.numDst()] = true
			}
			for _, p := range e.plans {
				for li := range p.layers {
					lp := &p.layers[li]
					addBlock(&lp.owned)
					addBlock(&lp.cached)
					for _, g := range lp.ownedGroups {
						edgeRows[len(g.srcLocal)] = true
					}
					vertexRows[lp.numPrevRows], vertexRows[lp.numHAllRows] = true, true
					if f, ok := lp.flow.(*tpSlice); ok {
						addBlock(&f.shared.all)
					}
				}
			}
			delete(edgeRows, 0)
			for r := range vertexRows {
				delete(edgeRows, r)
			}
			if len(edgeRows) == 0 {
				t.Fatal("every edge count coincides with a vertex count; the check is vacuous")
			}

			aggregates := 0
			for _, tp := range tapes {
				for _, n := range tp.Nodes() {
					switch n.Name() {
					case "aggregate":
						aggregates++
					case "gather", "mul_colvec", "broadcast_col_mul":
						if n.Value.Cols() > 1 && edgeRows[n.Value.Rows()] {
							t.Errorf("tape records a per-edge tensor: %s %dx%d", n.Name(), n.Value.Rows(), n.Value.Cols())
						}
					}
				}
			}
			if aggregates == 0 {
				t.Fatalf("no aggregate node on %d tapes: the epoch did not run the fused kernel", len(tapes))
			}
		})
	}
}
