package serve

import (
	"container/list"
	"sync"

	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// cacheKey addresses one vertex's representation at one layer: layer l is
// the row entering layer l's computation, so layer 1..L are computed
// embeddings (raw features are layer 0 and never cached — they are free).
// The layer sits in the high word and the vertex in the low one, so the
// index hashes one machine word.
type cacheKey uint64

func keyOf(layer int, vert int32) cacheKey {
	return cacheKey(uint64(layer)<<32 | uint64(uint32(vert)))
}

// cacheEntry is one cached row plus the generation it was computed under.
type cacheEntry struct {
	key cacheKey
	gen uint64
	row []float32
}

// embedCache is the byte-budgeted per-layer embedding cache, in the spirit
// of CaPGNN's budgeted joint cache: instead of materialising every vertex's
// embedding, it keeps the most recently useful rows within a fixed memory
// budget, evicting least-recently-used rows past it. Invalidate advances a
// generation counter and drops everything: entries computed under old
// parameters must never answer post-update queries, and in-flight jobs
// carrying an old generation cannot re-insert stale rows.
//
// A nil *embedCache is valid and behaves as an always-miss cache, which is
// how Config.CacheBytes <= 0 disables caching without guarding call sites.
type embedCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	gen    uint64
	lru    *list.List // front = most recently used; values are *cacheEntry
	idx    map[cacheKey]*list.Element

	// The registry holds the cache's counts; stats reads them back.
	hits, misses, evictions *obs.Counter
	resident                *obs.Gauge
}

func newEmbedCache(budget int64, reg *obs.Registry) *embedCache {
	return &embedCache{
		budget:    budget,
		lru:       list.New(),
		idx:       make(map[cacheKey]*list.Element),
		hits:      reg.Counter("ns_serve_cache_hits_total", "Embedding cache rows served."),
		misses:    reg.Counter("ns_serve_cache_misses_total", "Embedding cache lookups that missed."),
		evictions: reg.Counter("ns_serve_cache_evictions_total", "Embedding cache rows evicted past the byte budget."),
		resident:  reg.Gauge("ns_serve_cache_bytes", "Embedding cache resident row bytes."),
	}
}

// generation returns the current generation, captured by extraction so a
// job's later putMany calls can be rejected if the parameters moved meanwhile.
func (c *embedCache) generation() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// getMany looks up one block's sources at layer under one lock: out[i] is
// verts[i]'s cached row, or nil on a miss. Ids from n up are a request's
// virtual vertices, never cached and not counted. The returned rows are
// owned by the cache: callers copy out of them and never mutate them.
// getMany returns the number of hits.
func (c *embedCache) getMany(layer int, verts []int32, n int32, out [][]float32) int {
	if c == nil {
		return 0
	}
	hits, misses := 0, 0
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, v := range verts {
		out[i] = nil
		if v >= n {
			continue
		}
		el, ok := c.idx[keyOf(layer, v)]
		if !ok {
			misses++
			continue
		}
		c.lru.MoveToFront(el)
		out[i] = el.Value.(*cacheEntry).row
		hits++
	}
	c.hits.Add(float64(hits))
	c.misses.Add(float64(misses))
	return hits
}

// putMany inserts a copy of rows.Row(d) as verts[d]'s layer row for every
// real vertex (id below n), under one lock, evicting LRU rows past the byte
// budget after each insert. A put whose generation is stale (Invalidate ran
// since the caller captured gen) is dropped — the rows were computed under
// superseded parameters.
func (c *embedCache) putMany(layer int, verts []int32, n int32, rows *tensor.Tensor, gen uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	for d, v := range verts {
		if v >= n {
			continue
		}
		key := keyOf(layer, v)
		if el, ok := c.idx[key]; ok {
			// Same generation ⇒ same parameters ⇒ same value; just refresh
			// recency.
			c.lru.MoveToFront(el)
			continue
		}
		e := &cacheEntry{key: key, gen: gen, row: append([]float32(nil), rows.Row(d)...)}
		c.idx[key] = c.lru.PushFront(e)
		c.bytes += int64(4 * len(e.row))
		for c.bytes > c.budget && c.lru.Len() > 1 {
			back := c.lru.Back()
			ev := back.Value.(*cacheEntry)
			c.lru.Remove(back)
			delete(c.idx, ev.key)
			c.bytes -= int64(4 * len(ev.row))
			c.evictions.Inc()
		}
	}
	c.resident.Set(float64(c.bytes))
}

// Invalidate drops every entry and advances the generation: the parameters
// changed, so no cached row may answer another query and no in-flight job
// may insert one.
func (c *embedCache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.lru.Init()
	c.idx = make(map[cacheKey]*list.Element)
	c.bytes = 0
	c.resident.Set(0)
}

func (c *embedCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Enabled:     true,
		Hits:        int64(c.hits.Value()),
		Misses:      int64(c.misses.Value()),
		Evictions:   int64(c.evictions.Value()),
		Bytes:       c.bytes,
		BudgetBytes: c.budget,
	}
}
