// Package costmodel quantifies the two costs NeutronStar trades off
// (paper §3): the redundant-computation cost t_r of caching a dependency's
// multi-hop subtree (Eq. 1) and the communication cost t_c of fetching its
// representation every layer (Eq. 2). Environment factors T_v and T_e are
// probed on a small test graph as Algorithm 4 line 1 prescribes and T_c is
// derived from the network profile (CommFactor), or all three are
// constructed directly when an experiment wants to force a regime (the paper
// does the same in Figure 11 by disabling probing).
package costmodel

import (
	"time"

	"neutronstar/internal/autograd"
	"neutronstar/internal/tensor"
)

// Costs holds the probed environment factors, all in seconds per tensor
// element (a row element of dimension d costs T*d).
type Costs struct {
	// Tv is the per-dimension cost of a vertex-associated computation.
	Tv float64
	// Te is the per-dimension cost of an edge-associated computation.
	Te float64
	// Tc is the per-dimension cost of communicating one vertex row.
	Tc float64
}

// CommCost returns Tc · elems, Eq. 2's price of communicating elems
// elements: t_c^l(u) for one dependency row of width d^(l-1), or a
// tensor-parallel layer's slice-exchange volume (TPVolume).
func (c Costs) CommCost(elems int64) float64 { return float64(c.Tc * float64(elems)) }

// Probe measures T_v and T_e by timing a small tape-based training kernel —
// the same differentiable fused aggregation (gather · edge scale ·
// scatter-add) → dense transform → backward path the engines execute — so
// the factors include the autograd bookkeeping and allocation costs a bare
// micro-kernel would miss. T_e is GCN-shaped whatever model trains. T_c is
// not timed: it is CommFactor of the network profile (bytesPerSec,
// latencyPerMsg).
//
// Probing is intentionally crude — so is the paper's: it only needs enough
// fidelity to rank dependencies, not to predict absolute runtimes.
func Probe(bytesPerSec float64, latencyPerMsg time.Duration) Costs {
	const (
		probeVerts = 2048
		probeDim   = 64
		probeDeg   = 8
		reps       = 3
	)
	rng := tensor.NewRNG(0xC057)
	h := tensor.RandNormal(probeVerts, probeDim, 0, 1, rng)
	w := tensor.RandNormal(probeDim, probeDim, 0, 1, rng)
	numEdges := probeVerts * probeDeg
	src := make([]int32, numEdges)
	dst := make([]int32, numEdges)
	norm := make([]float32, numEdges)
	for i := range src {
		src[i] = int32(rng.Intn(probeVerts))
		dst[i] = int32(rng.Intn(probeVerts))
		norm[i] = 0.5
	}
	seed := tensor.New(probeVerts, probeDim)
	seed.Fill(1)

	// Edge path: the fused gather · per-edge scale · scatter-add kernel the
	// sum-type layers run, forward and backward.
	start := time.Now()
	for r := 0; r < reps; r++ {
		tape := autograd.NewTape()
		hv := tape.Leaf(h, true, "h")
		agg := tape.Aggregate(hv, src, norm, dst, probeVerts)
		tape.Backward(agg, seed)
	}
	te := time.Since(start).Seconds() / float64(reps*numEdges*probeDim)

	// Vertex path: dense transform, forward and backward.
	start = time.Now()
	for r := 0; r < reps; r++ {
		tape := autograd.NewTape()
		hv := tape.Leaf(h, true, "h")
		wv := tape.Constant(w, "w")
		out := tape.MatMul(hv, wv)
		tape.Backward(out, seed)
	}
	tv := time.Since(start).Seconds() / float64(reps*probeVerts*probeDim)

	return Costs{Tv: tv, Te: te, Tc: CommFactor(bytesPerSec, latencyPerMsg)}
}

// CommFactor derives T_c from a network profile (bytesPerSec,
// latencyPerMsg). Each float32 element is 4 bytes and the fabric's wire
// schedule charges its bytes twice, at the sender's egress and the
// receiver's ingress; the per-message latency is amortised over a typical
// chunk. A zero bytesPerSec means an unthrottled in-process fabric: channel
// hop + copy, measured to be on the order of tens of nanoseconds per element.
func CommFactor(bytesPerSec float64, latencyPerMsg time.Duration) float64 {
	// Communication runs in both directions (representations forward,
	// gradients backward), matching the doubled compute Probe measures.
	const bidirectional = 2
	// syncOverhead doubles the wire price again, and the communication
	// stage does not show why. On the benchmark's traced train-comm (DepComm
	// over ECS, 2-core amd64) the stage's measured seconds per element fit
	// 0.49-0.52 of this T_c, and 0.99-1.02 of the wire price alone (this
	// factor and the latency term dropped). The plans show why: priced at
	// the wire alone, hybrid on reddit over ECS caches a median 3 500
	// instead of 6 600 of its 6 900 layer-2 dependencies, and nstrain's
	// median epoch goes from 17.9 to 23.2 ms (slower in 11 of 12 alternated
	// runs). A communicated row costs more than its own stage — barrier
	// slack, mailbox waits, the compute it stalls — so the factor belongs
	// to the plan, not to stage accounting (ROADMAP item 16).
	const syncOverhead = 2
	perElement := 25e-9
	if bytesPerSec > 0 {
		const bytesPerElement = 4
		const typicalChunkElements = 32 * 1024
		perElement = 2 * bytesPerElement / bytesPerSec
		perElement += float64(latencyPerMsg.Seconds() / typicalChunkElements)
	}
	return bidirectional * syncOverhead * perElement
}
