package experiments

import (
	"neutronstar/internal/comm"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
)

// Ablations isolates each engine mechanism on one workload (GCN on the
// given graph, ECS profile): ring vs naive send order, lock-free vs locked
// enqueue, chunk-pipelined overlap on/off, source-specific chunks vs
// ROC-style whole-block broadcast, and gradient all-reduce vs parameter server.
// These complement Figure 9 (which stacks R/L/P cumulatively) by toggling
// one mechanism at a time.
func Ablations(sc Scale, graphName string) []Row {
	ds := load(graphName)
	base := func() engine.Options {
		return stdOpts(engine.DepComm, nn.GCN, sc.Workers, comm.ProfileECS)
	}
	measure := func(mut func(*engine.Options)) float64 {
		o := base()
		mut(&o)
		return epochMillis(sc, ds, o)
	}
	var rows []Row
	add := func(label string, off, on float64) {
		rows = append(rows, newRow(label, "off_ms", off, "on_ms", on, "speedup", off/on))
	}
	add("ring-scheduling",
		measure(func(o *engine.Options) {}),
		measure(func(o *engine.Options) { o.Ring = true }))
	add("lock-free-enqueue",
		measure(func(o *engine.Options) {}),
		measure(func(o *engine.Options) { o.LockFree = true }))
	add("chunk-overlap",
		measure(func(o *engine.Options) {}),
		measure(func(o *engine.Options) { o.Overlap = true }))
	add("chunked-vs-broadcast",
		measure(func(o *engine.Options) { o.Broadcast = true }),
		measure(func(o *engine.Options) {}))
	add("allreduce-vs-paramserver",
		measure(func(o *engine.Options) { o.ParamServer = true }),
		measure(func(o *engine.Options) {}))
	return rows
}
