package engine

import (
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// allReduceGrads sums every parameter gradient across workers with one
// all-reduce exchange (the AllReduceUpdate of Fig. 6). Every worker finishes
// with bit-identical summed gradients, which keeps the model replicas in
// exact sync after the deterministic optimiser step.
func (ws *workerState) allReduceGrads(epoch int, params []*nn.Param) {
	total := 0
	for _, p := range params {
		total += p.Grad.Len()
	}
	ws.clock.Phase(obs.StageGradSync, 0, "allreduce",
		obs.Int("epoch", epoch), obs.Int("bytes", 4*total))
	m := ws.eng.opts.Workers
	if m == 1 {
		return
	}
	buf := nn.Flatten(params, nn.GradOf)
	comm.AllReduce(ws.eng.fabric, ws.id, m, epoch, buf)
	nn.Unflatten(buf, params, nn.GradOf)
}
