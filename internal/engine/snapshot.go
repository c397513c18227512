package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// Snapshot captures the engine's full recoverable state: every worker's
// parameters, optimiser moments and RNG position, plus the epoch counter and
// loss history. Call it only between epochs (the engine is externally
// synchronous, so any caller respecting that is already at a barrier).
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
		params := ws.model.Params()
		opt := nn.CaptureOptState(ws.opt, params)
		w := ckpt.WorkerState{
			RNGState: ws.rng.State(),
			OptAlgo:  opt.Algo,
			OptStep:  opt.Step,
		}
		for i, p := range params {
			ps := ckpt.ParamState{
				Name: p.Name,
				Rows: p.Value.Rows(), Cols: p.Value.Cols(),
				Value: append([]float32(nil), p.Value.Data()...),
			}
			if opt.M[i] != nil {
				ps.M, ps.V = opt.M[i], opt.V[i] // CaptureOptState already copied
			}
			w.Params = append(w.Params, ps)
		}
		snap.Workers = append(snap.Workers, w)
	}
	return snap
}

// Restore loads a snapshot taken by an engine with the same fingerprint. All
// checks run before any mutation, so a rejected snapshot leaves the engine
// untouched.
func (e *Engine) Restore(snap *ckpt.Snapshot) error {
	if fp := e.Fingerprint(); snap.Fingerprint != fp {
		return fmt.Errorf("engine: snapshot fingerprint %#x does not match this configuration (%#x); dataset, partitioning, model or seed changed", snap.Fingerprint, fp)
	}
	if len(snap.Workers) != len(e.states) {
		return fmt.Errorf("engine: snapshot has %d workers, engine has %d", len(snap.Workers), len(e.states))
	}
	applyOpt := make([]func(), len(e.states))
	for wi, ws := range e.states {
		params := ws.model.Params()
		sw := &snap.Workers[wi]
		if len(sw.Params) != len(params) {
			return fmt.Errorf("engine: worker %d snapshot has %d params, model has %d", wi, len(sw.Params), len(params))
		}
		opt := nn.OptState{Algo: sw.OptAlgo, Step: sw.OptStep,
			M: make([][]float32, len(params)), V: make([][]float32, len(params))}
		for i, p := range params {
			sp := &sw.Params[i]
			if sp.Rows != p.Value.Rows() || sp.Cols != p.Value.Cols() {
				return fmt.Errorf("engine: worker %d param %s is %dx%d in the snapshot, %dx%d in the model",
					wi, p.Name, sp.Rows, sp.Cols, p.Value.Rows(), p.Value.Cols())
			}
			opt.M[i], opt.V[i] = sp.M, sp.V
		}
		apply, err := nn.RestoreOptState(ws.opt, params, opt)
		if err != nil {
			return fmt.Errorf("engine: worker %d: %w", wi, err)
		}
		applyOpt[wi] = apply
	}
	for wi, ws := range e.states {
		sw := &snap.Workers[wi]
		applyOpt[wi]()
		for i, p := range ws.model.Params() {
			copy(p.Value.Data(), sw.Params[i].Value)
		}
		ws.rng.SetState(sw.RNGState)
	}
	e.paramVersion.Add(1)
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

// History returns a copy of the per-epoch stats of every completed epoch
// (including epochs restored from a snapshot).
func (e *Engine) History() []EpochStats {
	return append([]EpochStats(nil), e.history...)
}
