package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"neutronstar/internal/ckpt"
	"neutronstar/internal/nn"
)

// Fingerprint hashes everything a snapshot's worker-state layout depends on:
// the dataset identity and size, the cluster shape, the model architecture,
// the seed, and the exact vertex-to-worker assignment. Two engines with equal
// fingerprints hold structurally interchangeable state; Restore refuses
// anything else, because loading parameters onto a different partitioning
// would silently misalign every worker's owned block.
func (e *Engine) Fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	wInt := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	wStr := func(s string) {
		wInt(len(s))
		h.Write([]byte(s))
	}
	wStr(e.ds.Spec.Name)
	wInt(e.ds.NumVertices())
	wInt(e.ds.NumEdges())
	wInt(e.opts.Workers)
	wStr(string(e.opts.Mode))
	wStr(string(e.opts.Model))
	wInt(len(e.dims))
	for _, d := range e.dims {
		wInt(d)
	}
	binary.LittleEndian.PutUint64(b[:], e.opts.Seed)
	h.Write(b[:])
	for _, owner := range e.planner.Part.Assign {
		binary.LittleEndian.PutUint32(b[:4], uint32(owner))
		h.Write(b[:4])
	}
	return h.Sum64()
}

// Snapshot captures the engine's full recoverable state: the model's
// parameters and Adam state, every worker's RNG position, the epoch counter
// and the loss history. The gradient all-reduce keeps the replicas
// identical, and under ParamServer worker 0 is the server that steps, so
// worker 0's replica and optimiser are the model's one copy. Call it only
// between epochs (the engine is externally synchronous, so any caller
// respecting that is already at a barrier).
func (e *Engine) Snapshot() *ckpt.Snapshot {
	snap := &ckpt.Snapshot{Fingerprint: e.Fingerprint(), Epoch: e.epoch}
	for _, h := range e.history {
		snap.History = append(snap.History, ckpt.EpochRecord{
			Epoch:  h.Epoch,
			Loss:   h.Loss,
			Millis: float64(h.Duration.Microseconds()) / 1000,
		})
	}
	for _, ws := range e.states {
		snap.RNG = append(snap.RNG, ws.rng.State())
	}
	params := e.states[0].model.Params()
	opt := nn.CaptureOptState(e.states[0].opt, params)
	snap.Step = opt.Step
	for i, p := range params {
		snap.Params = append(snap.Params, ckpt.ParamState{
			Name: p.Name,
			Rows: p.Value.Rows(), Cols: p.Value.Cols(),
			Value: append([]float32(nil), p.Value.Data()...),
			M:     opt.M[i], V: opt.V[i], // CaptureOptState already copied
		})
	}
	return snap
}

// Restore loads a snapshot taken by an engine with the same fingerprint
// into every replica. All checks run before any mutation, so a rejected
// snapshot leaves the engine untouched.
func (e *Engine) Restore(snap *ckpt.Snapshot) error {
	if fp := e.Fingerprint(); snap.Fingerprint != fp {
		return fmt.Errorf("engine: snapshot fingerprint %#x does not match this configuration (%#x); dataset, partitioning, model or seed changed", snap.Fingerprint, fp)
	}
	if len(snap.RNG) != len(e.states) {
		return fmt.Errorf("engine: snapshot has %d worker RNG streams, engine has %d workers", len(snap.RNG), len(e.states))
	}
	if err := e.checkParams(snap.Params); err != nil {
		return err
	}
	opt := nn.OptState{Step: snap.Step,
		M: make([][]float32, len(snap.Params)), V: make([][]float32, len(snap.Params))}
	for i := range snap.Params {
		opt.M[i], opt.V[i] = snap.Params[i].M, snap.Params[i].V
	}
	e.installParams(snap.Params)
	for wi, ws := range e.states {
		nn.RestoreOptState(ws.opt, ws.model.Params(), opt)
		ws.rng.SetState(snap.RNG[wi])
	}
	e.epoch = snap.Epoch
	e.history = e.history[:0]
	for _, h := range snap.History {
		e.history = append(e.history, EpochStats{
			Epoch: h.Epoch, Loss: h.Loss,
			Duration: time.Duration(h.Millis * float64(time.Millisecond)),
		})
	}
	return nil
}

// SaveModel writes the engine's snapshot: the trained model file that
// LoadModel (and nsserve -load-model) reads is the checkpoint format.
func (e *Engine) SaveModel(w io.Writer) error { return e.Snapshot().Encode(w) }

// LoadModel reads a snapshot and copies its parameters into every replica.
// The parameters must match the engine's architecture; the fingerprint, RNG
// positions, moments and history are ignored, so a model loads into any
// worker count, mode or seed. A file that fails its checksum or the
// parameter check leaves every replica untouched.
func (e *Engine) LoadModel(r io.Reader) error {
	snap, err := ckpt.Decode(r)
	if err != nil {
		return err
	}
	if err := e.checkParams(snap.Params); err != nil {
		return err
	}
	e.installParams(snap.Params)
	return nil
}

// checkParams checks a snapshot's parameters against the model's by
// position: the same count, names and shapes, and values and both moments
// of each parameter's length. Every replica has worker 0's layout.
func (e *Engine) checkParams(snap []ckpt.ParamState) error {
	params := e.states[0].model.Params()
	if len(snap) != len(params) {
		return fmt.Errorf("engine: snapshot has %d params, model has %d", len(snap), len(params))
	}
	for i, p := range params {
		sp := &snap[i]
		if sp.Name != p.Name || sp.Rows != p.Value.Rows() || sp.Cols != p.Value.Cols() {
			return fmt.Errorf("engine: snapshot param %d is %s %dx%d, model wants %s %dx%d",
				i, sp.Name, sp.Rows, sp.Cols, p.Name, p.Value.Rows(), p.Value.Cols())
		}
		if n := p.Value.Len(); len(sp.Value) != n || len(sp.M) != n || len(sp.V) != n {
			return fmt.Errorf("engine: snapshot param %s has %d values and %d/%d moments, want %d",
				p.Name, len(sp.Value), len(sp.M), len(sp.V), n)
		}
	}
	return nil
}

// installParams copies checked parameter values into every replica and
// advances the parameter version.
func (e *Engine) installParams(snap []ckpt.ParamState) {
	for _, ws := range e.states {
		for i, p := range ws.model.Params() {
			copy(p.Value.Data(), snap[i].Value)
		}
	}
	e.paramVersion.Add(1)
}

// History returns a copy of the per-epoch stats of every completed epoch
// (including epochs restored from a snapshot).
func (e *Engine) History() []EpochStats {
	return append([]EpochStats(nil), e.history...)
}
