package costmodel

// Tensor-parallel (DepTP) cost term. A DepTP layer holds the full graph on
// every worker but splits the feature dimension d^(l-1) into N contiguous
// column ranges; per-vertex dependency traffic disappears and is replaced by
// two slice-exchange collectives whose volume is |V|·d/N-shaped — independent
// of the degree distribution, which is the whole point (NeutronTP). The
// planner prices that volume with Costs.CommCost, the same per-element factor
// T_c Eq. 2 uses (CommFactor already counts the bidirectional
// forward/backward exchange), so the 3-way comparison against t_r and t_c
// stays in one unit system.

// TPColRange returns worker j's half-open column range [lo, hi) of a
// dimension split into n contiguous slices. Slices differ in width by at
// most one; when d < n the trailing workers get zero-width slices (they
// compute nothing and exchange nothing at that layer).
func TPColRange(dim, n, j int) (lo, hi int) {
	return dim * j / n, dim * (j + 1) / n
}

// TPVolume returns the per-epoch forward received element volume of one
// worker at a tensor-parallel layer (the backward re-scatter mirrors it and
// is covered by CommFactor's bidirectional factor): in the re-gather, the
// other workers' column slices of its owned rows, |owned|·(d−width_j)
// elements, plus — beyond layer 1, whose feature slices are assembled once at
// setup — every non-owned row's share of its own column slice in the
// slice-scatter, (|V|−|owned|)·width_j elements. Only a slice-separable
// layer runs tensor-parallel; any other is planned as whole blocks fetched
// over the master–mirror exchange and priced as fetched rows.
//
// With a single worker every term is zero: DepTP degenerates to local
// compute, matching the other policies' single-worker degeneracy.
func TPVolume(firstLayer bool, totalVerts, ownedVerts, dim, colWidth int) int64 {
	v := int64(ownedVerts) * int64(dim-colWidth)
	if !firstLayer {
		v += int64(totalVerts-ownedVerts) * int64(colWidth)
	}
	return v
}
