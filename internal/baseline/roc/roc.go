// Package roc configures the training engine to mimic ROC (Jia et al.,
// MLSys'20), the DepComm baseline of the paper's evaluation: full-graph
// training where every worker pulls the entire partition block from its
// peers instead of source-specific chunks (§5.3: "the ROC worker does not
// differentiate the output messages with various destinations and send[s]
// the whole messages block to all workers"), with none of NeutronStar's
// communication optimisations. engine.Options.Broadcast states that pattern
// as the plan's send sets; the blocks travel the engine's one packed
// master–mirror exchange. Like the real system, it has no
// edge-associated NN computation and therefore cannot run GAT.
package roc

import (
	"fmt"

	"neutronstar/internal/comm"
	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// Options configures the ROC-like baseline.
type Options struct {
	Workers int
	Model   nn.ModelKind
	Hidden  int
	LR      float32
	Seed    uint64
	Profile comm.NetworkProfile
	Tracer  *obs.Tracer
}

// New returns an engine emulating ROC's execution strategy. GAT is rejected
// — ROC lacks edge-centric NN computation (Table 5 footnote).
func New(ds *dataset.Dataset, opts Options) (*engine.Engine, error) {
	if opts.Model == nn.GAT {
		return nil, fmt.Errorf("roc: GAT is unsupported (no edge-associated NN computation)")
	}
	return engine.NewEngine(ds, engine.Options{
		Workers:   opts.Workers,
		Mode:      engine.DepComm,
		Model:     opts.Model,
		Hidden:    opts.Hidden,
		LR:        opts.LR,
		Seed:      opts.Seed,
		Profile:   opts.Profile,
		Tracer:    opts.Tracer,
		Broadcast: true,
		// No ring scheduling, no lock-free enqueue, no overlap: ROC predates
		// these NeutronStar optimisations.
		Ring: false, LockFree: false, Overlap: false,
	})
}
