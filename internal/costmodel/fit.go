package costmodel

// FitComputeFactors recovers empirical T_v and T_e from measured layer times
// by least squares: each observation models
//
//	seconds[i] ≈ Tv·vertexElems[i] + Te·edgeElems[i]
//
// where vertexElems/edgeElems are vertex-op and edge-op counts already
// multiplied by the layer's representation dimension (the same element units
// the probe divides by). The 2×2 normal equations are solved directly.
//
// ok is false when the system is singular or ill-conditioned — e.g. a single
// observation, or layers whose vertex/edge ratios are identical so the two
// factors cannot be separated. Callers should then fall back to uniformly
// scaling the probed factors by the aggregate measured/predicted ratio.
func FitComputeFactors(vertexElems, edgeElems, seconds []float64) (tv, te float64, ok bool) {
	if len(vertexElems) != len(seconds) || len(edgeElems) != len(seconds) || len(seconds) < 2 {
		return 0, 0, false
	}
	var svv, sve, see, svs, ses float64
	for i := range seconds {
		v, e, s := vertexElems[i], edgeElems[i], seconds[i]
		svv += float64(v * v)
		sve += float64(v * e)
		see += float64(e * e)
		svs += float64(v * s)
		ses += float64(e * s)
	}
	det := float64(svv*see) - float64(sve*sve)
	// Relative singularity check: det is a product of squared magnitudes, so
	// compare against the scale of the matrix rather than an absolute epsilon.
	if scale := svv * see; scale <= 0 || det <= 1e-9*scale {
		return 0, 0, false
	}
	tv = (float64(see*svs) - float64(sve*ses)) / det
	te = (float64(svv*ses) - float64(sve*svs)) / det
	if tv < 0 || te < 0 {
		// Negative factors mean the observations contradict the model shape;
		// a uniform rescale of the probe is more trustworthy than these.
		return 0, 0, false
	}
	return tv, te, true
}
