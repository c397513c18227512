package comm

import (
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// AllReduce sums buf element-wise across all m workers in place with one
// exchange: every worker sends one shared copy of its vector to each peer in
// ring order, waits for the m-1 peers' vectors, and reduces chunk c (the
// ring's own c·n/m bounds) in the ring's own order g_c + g_(c+1) + … +
// g_(c+m-1). Each partial sum therefore has the operands RingAllReduce gives
// it, so the result is bit-identical to the ring's on every worker (float
// addition commutes; only the association matters), in one latency step
// instead of 2(m-1). A worker moves (m-1)·n elements instead of the ring's
// 2(m-1)·n/m, which is the cheaper trade while messages are latency-bound:
// every model in the registry is under 15 KB of parameters.
//
// All workers must call it with the same tag and equal-length buffers; each
// passes its own id. Receivers only read the payload — in process it is the
// sender's one copy, shared by all m-1 messages.
//
// Message tagging: Kind=KindAllReduce, Epoch=tag. Callers must choose tags
// unique per collective so concurrent epochs cannot alias.
func AllReduce(f Network, id, m, tag int, buf []float32) {
	if m <= 1 {
		return
	}
	n := len(buf)
	mine := tensor.New(1, n)
	copy(mine.Data(), buf)
	peers := RingOrder(id, m)
	for _, j := range peers {
		f.Send(&Message{From: id, To: j, Kind: KindAllReduce, Epoch: tag, Rows: mine})
	}
	vecs := make([][]float32, m)
	vecs[id] = mine.Data()
	mb := f.Mailbox(id)
	for _, j := range peers {
		vecs[j] = mb.Wait(KindAllReduce, tag, 0, 0, j).Rows.Data()
	}
	for c := 0; c < m; c++ {
		lo, hi := c*n/m, (c+1)*n/m
		sum := buf[lo:hi]
		copy(sum, vecs[c][lo:hi])
		for k := 1; k < m; k++ {
			tensor.AddTo(sum, vecs[(c+k)%m][lo:hi])
		}
	}
}

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
// tracer (may be nil) records one structural ring_step span per step on the
// caller's timeline, making skew between ring neighbours visible in traces
// without altering utilisation accounting.
func RingAllReduce(f Network, id, m, tag int, buf []float32, tracer *obs.Tracer) {
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
		sp := tracer.Start(id, obs.ClassNone, "ring_step", obs.Int("step", step), obs.String("phase", "scatter_reduce"))
		cSend := (id - step + 2*m) % m
		send(step, cSend, chunk(cSend))
		cRecv := (id - step - 1 + 2*m) % m
		msg := mb.Wait(KindAllReduce, tag, step, cRecv, prev)
		tensor.AddTo(chunk(cRecv), msg.Rows.Data())
		sp.End()
	}
	// All-gather: circulate the reduced chunks.
	for step := 0; step < m-1; step++ {
		sp := tracer.Start(id, obs.ClassNone, "ring_step", obs.Int("step", m-1+step), obs.String("phase", "all_gather"))
		cSend := (id + 1 - step + 2*m) % m
		send(m-1+step, cSend, chunk(cSend))
		cRecv := (id - step + 2*m) % m
		msg := mb.Wait(KindAllReduce, tag, m-1+step, cRecv, prev)
		copy(chunk(cRecv), msg.Rows.Data())
		sp.End()
	}
}
