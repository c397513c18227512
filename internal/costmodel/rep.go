package costmodel

// Replication (DepRep) cost term. A replicated layer eliminates per-epoch
// dependency traffic entirely: every remote dependency's multi-hop subtree is
// materialized as local vertex copies (CoFree-GNN's vertex cut) and recomputed
// against local state, so Eq. 2's t_c never applies. What replication pays
// instead is replica storage — priced per replicated vertex below, with the
// feature/activation rows divided by a storage compression factor (1 for the
// exact float32 rows the engine stores) while the edge index slots stay
// full-size. The one-time replica feature broadcast at setup
// is not priced: like the 2-way modes' layer-1 feature fetch, it is amortised
// over the whole run and lies outside the per-epoch argmin.

// RepReplicaBytes prices the storage of one replicated vertex held at
// representation levels 0..topLevel: 4 bytes per element of each level's row,
// divided by the compression factor (1 = uncompressed), plus
// 8 uncompressed bytes per in-edge for the replica's edge index slots.
// dims is the d^(0)..d^(L) chain; levels beyond it are ignored.
func RepReplicaBytes(dims []int, topLevel, inDegree int, compression float64) int64 {
	if compression < 1 {
		compression = 1
	}
	var feat int64
	for k := 0; k <= topLevel && k < len(dims); k++ {
		feat += int64(4 * dims[k])
	}
	return int64(float64(feat)/compression) + int64(8*inDegree)
}
