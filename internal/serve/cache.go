package serve

import (
	"container/heap"
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
	key        cacheKey
	row        []float32
	text       []byte
	queried    bool
	hits, slot int
	prio       float64
}

func (e *cacheEntry) bytes() int64     { return int64(4*len(e.row) + len(e.text)) }
func (e *cacheEntry) mark() (was bool) { was, e.queried = e.queried, true; return was }
func (e *cacheEntry) price(clock float64) float64 {
	return clock + float64(e.hits*len(e.row))/float64(e.bytes())
}

// entryHeap orders the entries for eviction, least priority first.
type entryHeap []*cacheEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].prio < h[j].prio }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].slot, h[j].slot = i, j }
func (h *entryHeap) Push(x any)        { e := x.(*cacheEntry); e.slot = len(*h); *h = append(*h, e) }
func (h *entryHeap) Pop() any {
	e := (*h)[len(*h)-1]
	(*h)[len(*h)-1], *h = nil, (*h)[:len(*h)-1]
	return e
}

// embedCache is the byte-budgeted per-layer embedding cache, in the spirit
// of CaPGNN's budgeted joint cache, evicting by GreedyDual-Size-Frequency:
// priority = clock + hits × d ÷ bytes, d being the elements of the row a hit
// spares recomputing and bytes its row's and text's. The least priority
// leaves to make room and the clock advances to it, so rows no longer hit
// age out. A row's computation is its first hit; a final row, admitted on
// its vertex's second query, enters with two. Invalidate drops every row
// and the clock and advances the generation; each lookup and insert names
// its caller's snapshot's generation and misses (or is dropped) when that
// is stale, so no job reads or writes another version's rows.
//
// A nil *embedCache is valid and behaves as an always-miss cache, which is
// how Config.CacheBytes <= 0 disables caching without guarding call sites.
type embedCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	gen    uint64
	clock  float64
	heap   entryHeap
	idx    map[cacheKey]*cacheEntry

	// The registry holds the cache's counts; stats reads them back.
	hits, misses, evictions *obs.Counter
	resident                *obs.Gauge
}

func newEmbedCache(budget int64, reg *obs.Registry) *embedCache {
	return &embedCache{
		budget:    budget,
		idx:       make(map[cacheKey]*cacheEntry),
		hits:      reg.Counter("ns_serve_cache_hits_total", "Embedding cache rows served."),
		misses:    reg.Counter("ns_serve_cache_misses_total", "Embedding cache lookups that missed."),
		evictions: reg.Counter("ns_serve_cache_evictions_total", "Embedding cache rows evicted past the byte budget."),
		resident:  reg.Gauge("ns_serve_cache_bytes", "Embedding cache resident row and text bytes."),
	}
}

// use credits e with one more hit and reprices it against the clock.
func (c *embedCache) use(e *cacheEntry) {
	e.hits++
	e.prio = e.price(c.clock)
	heap.Fix(&c.heap, e.slot)
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
		e, ok := c.idx[keyOf(layer, v)]
		if !ok || gen != c.gen {
			misses++
			continue
		}
		c.use(e)
		out[i] = e.row
		hits++
	}
	c.hits.Add(float64(hits))
	c.misses.Add(float64(misses))
	return hits
}

// answer looks up, under one lock, every vertex's final-layer entry and,
// for L > 1, its penultimate one: entries k*i and k*i+1 (k = 2, or 1 when L
// is 1). It returns nil, crediting nothing, when gen is stale or any entry
// is missing; otherwise each entry returned is one hit.
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
			e, ok := c.idx[keyOf(l, v)]
			if !ok {
				return nil
			}
			out = append(out, e)
		}
	}
	for _, e := range out {
		c.use(e)
	}
	c.hits.Add(float64(len(out)))
	return out
}

// putMany inserts a copy of rows.Row(d) as verts[d]'s layer row for every
// real vertex (id below n) not yet resident, under one lock, evicting the
// least priority first to keep each insert within the budget. With text,
// final rows enter on their vertex's second query while its penultimate row
// stays cached (the first marks it; at layer 1 every row enters), and only
// with a non-nil text(d), asked once and kept with the row in the budget. A
// put whose generation is stale (Invalidate ran since the caller's
// snapshot) is dropped — the rows were computed under superseded parameters.
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
		key := keyOf(layer, v)
		if _, ok := c.idx[key]; ok || v >= n {
			continue // a resident row is the same value: no hit, no reprice
		}
		var t []byte
		if text != nil {
			if pen, ok := c.idx[keyOf(layer-1, v)]; layer > 1 && (!ok || !pen.mark()) {
				continue
			}
			if t = text(d); t == nil {
				continue
			}
		}
		e := &cacheEntry{key: key, row: append([]float32(nil), rows.Row(d)...), text: t, hits: 1}
		if t != nil {
			e.hits = 2 // a final row: past one layer, its vertex's second query
		}
		for c.bytes+e.bytes() > c.budget && len(c.heap) > 0 {
			ev := heap.Pop(&c.heap).(*cacheEntry)
			c.clock, c.bytes = ev.prio, c.bytes-ev.bytes()
			delete(c.idx, ev.key)
			c.evictions.Inc()
		}
		e.prio = e.price(c.clock)
		heap.Push(&c.heap, e)
		c.idx[key], c.bytes = e, c.bytes+e.bytes()
	}
	c.resident.Set(float64(c.bytes))
}

// Invalidate drops every entry, resets the clock and advances the
// generation, which it returns: the parameters changed, so no cached row may
// answer another query and no in-flight job may insert one.
func (c *embedCache) Invalidate() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.heap, c.clock, c.bytes = nil, 0, 0
	c.idx = make(map[cacheKey]*cacheEntry)
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
