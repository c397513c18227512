package comm

import (
	"neutronstar/internal/metrics"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// RingAllReduce sums buf element-wise across all m workers in place, using
// the classic two-phase ring: m-1 scatter-reduce steps then m-1 all-gather
// steps. All workers must call it with the same tag and equal-length
// buffers; each worker passes its own id. The result is bit-identical on
// every worker because each chunk is reduced at exactly one worker in ring
// order and then copied verbatim.
//
// Message tagging: Kind=KindAllReduce, Epoch=tag, Layer=step, Seq=chunk.
// Callers must choose tags unique per collective (e.g. a global step
// counter) so concurrent epochs cannot alias.
//
// coll (may be nil) records one structural ring_step span per step on the
// caller's timeline, making skew between ring neighbours visible in traces
// without altering utilisation accounting.
func RingAllReduce(f Network, id, m, tag int, buf []float32, coll *metrics.Collector) {
	if m <= 1 {
		return
	}
	total := len(buf)
	bounds := make([]int, m+1)
	for c := 0; c <= m; c++ {
		bounds[c] = c * total / m
	}
	chunk := func(c int) []float32 { return buf[bounds[c]:bounds[c+1]] }

	next := (id + 1) % m
	prev := (id - 1 + m) % m
	mb := f.Mailbox(id)
	send := func(step, c int, data []float32) {
		rows := tensor.New(1, len(data))
		copy(rows.Data(), data)
		f.Send(&Message{
			From: id, To: next, Kind: KindAllReduce,
			Epoch: tag, Layer: step, Seq: c, Rows: rows,
		})
	}

	// Scatter-reduce: after m-1 steps worker id holds the fully reduced
	// chunk (id+1) mod m.
	for step := 0; step < m-1; step++ {
		sp := coll.Group(id, "ring_step", obs.Int("step", step), obs.String("phase", "scatter_reduce"))
		cSend := (id - step + 2*m) % m
		send(step, cSend, chunk(cSend))
		cRecv := (id - step - 1 + 2*m) % m
		msg := mb.Wait(KindAllReduce, tag, step, cRecv, prev)
		tensor.AddTo(chunk(cRecv), msg.Rows.Data())
		sp.End()
	}
	// All-gather: circulate the reduced chunks.
	for step := 0; step < m-1; step++ {
		sp := coll.Group(id, "ring_step", obs.Int("step", m-1+step), obs.String("phase", "all_gather"))
		cSend := (id + 1 - step + 2*m) % m
		send(m-1+step, cSend, chunk(cSend))
		cRecv := (id - step + 2*m) % m
		msg := mb.Wait(KindAllReduce, tag, m-1+step, cRecv, prev)
		copy(chunk(cRecv), msg.Rows.Data())
		sp.End()
	}
}
