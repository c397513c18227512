package serve

import (
	"container/list"
	"sync"

	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// cacheKey addresses one vertex's representation at one layer: layer l is
// the row entering layer l's computation, so layers 1..L-1 are hidden
// embeddings and layer L, which no layer consumes, the final logits (raw
// features are layer 0 and never cached — they are free). The layer sits
// in the high word and the vertex in the low one: the index hashes one word.
type cacheKey uint64

func keyOf(layer int, vert int32) cacheKey {
	return cacheKey(uint64(layer)<<32 | uint64(uint32(vert)))
}

// cacheEntry is one cached row; a final row also keeps its JSON text. queried
// marks a penultimate row that has served its vertex as a queried one.
type cacheEntry struct {
	key     cacheKey
	row     []float32
	text    []byte
	queried bool
}

func (e *cacheEntry) bytes() int64     { return int64(4*len(e.row) + len(e.text)) }
func (e *cacheEntry) mark() (was bool) { was, e.queried = e.queried, true; return was }

// embedCache is the byte-budgeted per-layer embedding cache, in the spirit
// of CaPGNN's budgeted joint cache: instead of materialising every vertex's
// embedding, it keeps the most recently useful rows within a fixed memory
// budget, evicting least-recently-used rows past it. Invalidate advances a
// generation counter and drops everything: entries computed under old
// parameters must never answer post-update queries. Every lookup and insert
// names the generation its caller's model snapshot is bound to and misses
// (or is dropped) when that is not the current one, so a job holding an old
// snapshot can neither read nor write another version's rows.
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
		resident:  reg.Gauge("ns_serve_cache_bytes", "Embedding cache resident row and text bytes."),
	}
}

// getMany looks up one block's sources at layer under one lock: out[i] is
// verts[i]'s cached row, or nil on a miss — every lookup misses when gen is
// not the current generation. Ids from n up are a request's virtual
// vertices, never cached and not counted. The returned rows are owned by the
// cache: callers copy out of them and never mutate them. getMany returns the
// number of hits.
func (c *embedCache) getMany(gen uint64, layer int, verts []int32, n int32, out [][]float32) int {
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
		if !ok || gen != c.gen {
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

// answer looks up, under one lock, every vertex's final-layer entry and,
// for L > 1, its penultimate one: entries k*i and k*i+1 (k = 2, or 1 when L
// is 1). It returns nil, counting nothing, when gen is stale or any entry
// is missing; otherwise it counts the rows as hits. Every entry found is
// made most recently used either way.
func (c *embedCache) answer(gen uint64, L int, verts []int32) []*cacheEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return nil
	}
	lo := max(L-1, 1)
	out := make([]*cacheEntry, 0, (L-lo+1)*len(verts))
	for _, v := range verts {
		for l := L; l >= lo; l-- {
			el, ok := c.idx[keyOf(l, v)]
			if !ok {
				return nil
			}
			c.lru.MoveToFront(el)
			out = append(out, el.Value.(*cacheEntry))
		}
	}
	c.hits.Add(float64(len(out)))
	return out
}

// putMany inserts a copy of rows.Row(d) as verts[d]'s layer row for every
// real vertex (id below n), under one lock, evicting LRU rows past the byte
// budget after each insert. With text, final rows enter on their vertex's
// second query while its penultimate row stays cached (the first marks it;
// at layer 1 every row enters), and only with a non-nil text(d), asked once
// and kept with the row in the budget. A put whose generation is stale
// (Invalidate ran since the caller's snapshot) is dropped — the rows were
// computed under superseded parameters.
func (c *embedCache) putMany(layer int, verts []int32, n int32, rows *tensor.Tensor, text func(d int) []byte, gen uint64) {
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
		var t []byte
		if text != nil {
			if pen, ok := c.idx[keyOf(layer-1, v)]; layer > 1 && (!ok || !pen.Value.(*cacheEntry).mark()) {
				continue
			}
			if t = text(d); t == nil {
				continue
			}
		}
		e := &cacheEntry{key: key, row: append([]float32(nil), rows.Row(d)...), text: t}
		c.idx[key] = c.lru.PushFront(e)
		c.bytes += e.bytes()
		for c.bytes > c.budget && c.lru.Len() > 1 {
			back := c.lru.Back()
			ev := back.Value.(*cacheEntry)
			c.lru.Remove(back)
			delete(c.idx, ev.key)
			c.bytes -= ev.bytes()
			c.evictions.Inc()
		}
	}
	c.resident.Set(float64(c.bytes))
}

// Invalidate drops every entry and advances the generation, which it
// returns: the parameters changed, so no cached row may answer another query
// and no in-flight job may insert one.
func (c *embedCache) Invalidate() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.lru.Init()
	c.idx = make(map[cacheKey]*list.Element)
	c.bytes = 0
	c.resident.Set(0)
	return c.gen
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
