package tensor

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool is a size-bucketed, sync.Pool-backed tensor allocator. Buckets hold
// tensors whose backing capacity is at least the requested element count
// rounded up to the next power of two, so a Get for any shape within a
// bucket's range can reuse any tensor previously Put into it.
//
// Get zeroes the returned tensor, making a pooled allocation semantically
// identical to New: computations run bit-for-bit the same whether a pool is
// in play or not. A nil *Pool is valid and degrades every method to the
// unpooled behaviour (Get == New, Put == no-op): the allocator-per-call
// reference the engine's pooled runs are compared against. The one exception
// is Arena.GetUnzeroed, for destinations that are overwritten in full before
// they are read, where the clear would only be a second write.
//
// All methods are safe for concurrent use.
type Pool struct {
	buckets [maxBucket + 1]sync.Pool

	hits     atomic.Int64
	misses   atomic.Int64
	inFlight atomic.Int64 // bytes currently checked out via Get
	high     atomic.Int64 // high-water mark of inFlight
}

// maxBucket caps pooled capacities at 2^maxBucket float32 elements (256 MiB);
// larger requests fall through to plain allocation and are never retained.
const maxBucket = 26

// Tensor pool state markers (Tensor.pooled).
const (
	poolNone uint8 = iota // never touched a pool
	poolLive              // checked out of a pool (or eligible for Put)
	poolFree              // currently inside a pool; using it is a bug
)

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// bucketFor returns the bucket whose tensors have capacity >= n, or -1 when
// n is too large to pool.
func bucketFor(n int) int {
	if n <= 0 {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b > maxBucket {
		return -1
	}
	return b
}

// Get returns a zeroed rows x cols tensor, reusing pooled storage when a
// large enough buffer is available. On a nil pool it is exactly New.
func (p *Pool) Get(rows, cols int) *Tensor { return p.get(rows, cols, true) }

// get is Get with the clear of recycled storage optional: with zero unset a
// reused tensor keeps whatever its last owner left in it. Fresh storage is
// zero either way.
func (p *Pool) get(rows, cols int, zero bool) *Tensor {
	if p == nil {
		return New(rows, cols)
	}
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	n := rows * cols
	b := bucketFor(n)
	if b < 0 {
		p.misses.Add(1)
		return New(rows, cols)
	}
	var t *Tensor
	if v := p.buckets[b].Get(); v != nil {
		t = v.(*Tensor)
		t.rows, t.cols = rows, cols
		t.data = t.data[:n]
		if zero {
			clear(t.data)
		}
		p.hits.Add(1)
	} else {
		t = &Tensor{rows: rows, cols: cols, data: make([]float32, n, 1<<b)}
		p.misses.Add(1)
	}
	t.pooled = poolLive
	p.track(4 * int64(n))
	return t
}

// Put returns t's storage to the pool for reuse. The caller must not use t
// (or any view sharing its storage) afterwards. Putting the same tensor
// twice without an intervening Get is a use-after-free bug and panics.
// A nil pool or nil tensor is a no-op.
func (p *Pool) Put(t *Tensor) {
	if p == nil || t == nil {
		return
	}
	if t.pooled == poolFree {
		panic("tensor: double Put of pooled tensor")
	}
	n := len(t.data)
	b := bucketFor(cap(t.data))
	if cap(t.data) == 0 || b < 0 || cap(t.data) != 1<<uint(b) {
		// Not a capacity this pool manages (odd-sized or oversized buffer);
		// drop it for the GC rather than poison a bucket's size invariant.
		if t.pooled == poolLive {
			p.track(-4 * int64(n))
		}
		t.pooled = poolNone
		return
	}
	if t.pooled == poolLive {
		p.track(-4 * int64(n))
	}
	t.pooled = poolFree
	p.buckets[b].Put(t)
}

// track updates the bytes-in-flight count and its high-water mark.
func (p *Pool) track(delta int64) {
	v := p.inFlight.Add(delta)
	for {
		h := p.high.Load()
		if v <= h || p.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// PoolStats is a point-in-time snapshot of a pool's allocation behaviour.
type PoolStats struct {
	// Hits counts Gets satisfied from a bucket; Misses counts Gets that had
	// to allocate fresh storage.
	Hits, Misses int64
	// BytesInFlight is the payload currently checked out (Get minus Put).
	BytesInFlight int64
	// HighWaterBytes is the maximum BytesInFlight ever observed.
	HighWaterBytes int64
}

// HitRate returns Hits / (Hits+Misses), or 0 before the first Get.
func (s PoolStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the pool's counters. A nil pool reports zeroes.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Hits:           p.hits.Load(),
		Misses:         p.misses.Load(),
		BytesInFlight:  p.inFlight.Load(),
		HighWaterBytes: p.high.Load(),
	}
}

// Arena returns a new epoch-scoped arena drawing from the pool. On a nil
// pool it returns nil — and a nil *Arena is itself valid, allocating with
// New and releasing nothing, so callers thread one pointer unconditionally.
func (p *Pool) Arena() *Arena {
	if p == nil {
		return nil
	}
	return &Arena{pool: p}
}

// Arena tracks every tensor obtained through it so they can be returned to
// the pool in one Release call at a known-quiescent point (the engine calls
// Release at the epoch barrier, after which no tape, message or gradient
// from the epoch is referenced anywhere).
//
// Get is safe for concurrent use (a worker's compute goroutine and its
// background send goroutine share one arena); Release must not race with
// Get, which the barrier guarantees.
type Arena struct {
	pool *Pool
	mu   sync.Mutex
	live []*Tensor
}

// Get returns a zeroed rows x cols tensor owned by the arena. On a nil
// arena it is exactly New.
func (a *Arena) Get(rows, cols int) *Tensor { return a.get(rows, cols, true) }

// GetUnzeroed returns a rows x cols tensor owned by the arena whose contents
// are unspecified: recycled storage is handed out as its last owner left it.
// It is for destinations the caller overwrites in full before reading any
// element — it skips Get's clearing pass, which there would be a second
// write of every element. Anything that accumulates into its destination
// must use Get. On a nil arena it is exactly New.
func (a *Arena) GetUnzeroed(rows, cols int) *Tensor { return a.get(rows, cols, false) }

func (a *Arena) get(rows, cols int, zero bool) *Tensor {
	if a == nil {
		return New(rows, cols)
	}
	t := a.pool.get(rows, cols, zero)
	a.mu.Lock()
	a.live = append(a.live, t)
	a.mu.Unlock()
	return t
}

// Release returns every tensor obtained since the last Release to the pool.
// All of them must be dead: no tape, message, or gradient may reference
// their storage after this call. Nil-safe.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	live := a.live
	a.live = a.live[:0]
	a.mu.Unlock()
	for _, t := range live {
		a.pool.Put(t)
	}
}

// Live returns the number of tensors currently checked out of the arena.
func (a *Arena) Live() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.live)
}
