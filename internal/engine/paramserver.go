package engine

import (
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// Message phase tags for the parameter-server exchange, carried in the
// Layer field (a PS round replaces the all-reduce exchange entirely, so the
// tags cannot collide with it).
const (
	psPhaseGrad  = 1 // worker -> server: flattened gradients
	psPhaseParam = 2 // server -> worker: flattened updated parameters
)

// paramServerUpdate implements the centralised alternative to ring
// all-reduce: every worker pushes its partial gradients to worker 0, which
// sums them, applies the optimiser once (keeping the canonical state), and
// broadcasts the updated parameter values. Replicas remain bit-identical
// because every worker installs the same broadcast bytes.
//
// Compared to the ring, the server's NIC carries m-1 inbound gradient
// messages and m-1 outbound parameter messages per epoch — the incast
// pattern that motivates all-reduce in the first place, observable under a
// throttled NetworkProfile.
func (ws *workerState) paramServerUpdate(epoch int, params []*nn.Param) {
	total := 0
	for _, p := range params {
		total += p.Grad.Len()
	}
	ws.clock.Phase(obs.StageGradSync, 0, "param_server",
		obs.Int("epoch", epoch), obs.Int("bytes", 4*total))
	m := ws.eng.opts.Workers
	if m == 1 {
		ws.opt.Step(params)
		return
	}

	if ws.id != 0 {
		// Push gradients, then install the broadcast parameters.
		ws.eng.fabric.Send(&comm.Message{
			From: ws.id, To: 0, Kind: comm.KindAllReduce,
			Epoch: epoch, Layer: psPhaseGrad, Rows: tensor.FromSlice(1, total, nn.Flatten(params, nn.GradOf)),
		})
		msg := ws.mb.Wait(comm.KindAllReduce, epoch, psPhaseParam, 0, 0)
		nn.Unflatten(msg.Rows.Data(), params, nn.ValueOf)
		return
	}

	// Server: accumulate gradients from every worker into the local ones.
	for j := 1; j < m; j++ {
		msg := ws.mb.Wait(comm.KindAllReduce, epoch, psPhaseGrad, 0, j)
		off := 0
		for _, p := range params {
			dst := p.Grad.Data()
			tensor.AddTo(dst, msg.Rows.Data()[off:off+len(dst)])
			off += len(dst)
		}
	}
	ws.opt.Step(params)
	out := tensor.FromSlice(1, total, nn.Flatten(params, nn.ValueOf))
	for j := 1; j < m; j++ {
		ws.eng.fabric.Send(&comm.Message{
			From: 0, To: j, Kind: comm.KindAllReduce,
			Epoch: epoch, Layer: psPhaseParam, Rows: out,
		})
	}
}
