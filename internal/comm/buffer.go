package comm

import (
	"sort"
	"sync"

	"neutronstar/internal/tensor"
)

// Enqueuer assembles the rows a worker is about to send to one peer.
// Multiple compute threads call WriteRowAt concurrently; Finish returns the
// packed tensor and the vertex order it was packed in.
//
// Two implementations exist, matching the paper's §4.3 ablation:
// LockFreeBuffer (the "L" optimisation — pre-indexed positions, no locks)
// and LockedBuffer (the mutex-guarded baseline).
type Enqueuer interface {
	// WriteRowAt stores the row for the i-th vertex of the destination set
	// the buffer was built with. An i outside the set panics.
	WriteRowAt(i int, row []float32)
	// Finish returns the packed rows and their vertex ids. The returned
	// tensor row i corresponds to vertex ids[i]. Finish must be called
	// exactly once, after all WriteRowAt calls completed.
	Finish() (*tensor.Tensor, []int32)
}

// LockFreeBuffer is the lock-free parallel enqueue of §4.3: the destination
// vertex set is known before the layer executes, so every vertex's row
// position is fixed up front; concurrent writers touch disjoint rows and no
// synchronisation is needed.
type LockFreeBuffer struct {
	rows     *tensor.Tensor
	vertices []int32
}

// WriteRowAt copies row into slot i. Safe for concurrent use on distinct
// indices.
func (b *LockFreeBuffer) WriteRowAt(i int, row []float32) {
	_ = b.vertices[i] // pooled storage has spare capacity: Row(i) may not panic
	copy(b.rows.Row(i), row)
}

// Finish returns the packed tensor and vertex ids, in construction order.
func (b *LockFreeBuffer) Finish() (*tensor.Tensor, []int32) {
	return b.rows, b.vertices
}

// LockedBuffer is the baseline enqueue: a mutex-guarded append queue that is
// sorted and compacted at Finish, modeling the lock-contended message queues
// of prior graph systems the paper contrasts against.
type LockedBuffer struct {
	mu sync.Mutex
	// vertices is the destination set WriteRowAt's index resolves through.
	vertices []int32
	// queued holds the vertex of every row written, in append order; rows
	// holds the rows themselves, one slot per destination vertex.
	queued []int32
	rows   *tensor.Tensor
	// arena, when non-nil, supplies the packed tensor at Finish.
	arena *tensor.Arena
}

// WriteRowAt appends a copy of the row for the i-th destination vertex
// under the mutex (the caller may reuse the slice).
func (b *LockedBuffer) WriteRowAt(i int, row []float32) {
	v := b.vertices[i]
	b.mu.Lock()
	copy(b.rows.Row(len(b.queued)), row)
	b.queued = append(b.queued, v)
	b.mu.Unlock()
}

// Finish sorts the queued rows by vertex id and packs them.
func (b *LockedBuffer) Finish() (*tensor.Tensor, []int32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	idx := make([]int, len(b.queued))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return b.queued[idx[i]] < b.queued[idx[j]] })
	out := b.arena.Get(len(idx), b.rows.Cols())
	verts := make([]int32, len(idx))
	for i, j := range idx {
		copy(out.Row(i), b.rows.Row(j))
		verts[i] = b.queued[j]
	}
	return out, verts
}

// NewEnqueuer returns the lock-free buffer when lockFree is set, otherwise
// the locked baseline. vertices is the exact destination set.
func NewEnqueuer(lockFree bool, vertices []int32, dim int) Enqueuer {
	return NewEnqueuerArena(lockFree, vertices, dim, nil)
}

// NewEnqueuerArena is NewEnqueuer with payload storage drawn from arena
// (nil arena allocates plainly). The arena owner must not release until the
// message built from this buffer is fully consumed — in the engine, the
// epoch barrier.
func NewEnqueuerArena(lockFree bool, vertices []int32, dim int, arena *tensor.Arena) Enqueuer {
	rows := arena.Get(len(vertices), dim)
	if lockFree {
		return &LockFreeBuffer{rows: rows, vertices: vertices}
	}
	return &LockedBuffer{vertices: vertices, queued: make([]int32, 0, len(vertices)), rows: rows, arena: arena}
}
