package serve

import (
	"slices"
	"testing"

	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// cacheRows returns len(verts) rows of width d, row i filled from verts[i],
// so every vertex's row is distinct and recognisable.
func cacheRows(verts []int32, d int) *tensor.Tensor {
	t := tensor.New(len(verts), d)
	for i, v := range verts {
		for c := range t.Row(i) {
			t.Row(i)[c] = float32(v) + float32(c)/float32(d)
		}
	}
	return t
}

// rowText stands in for a final row's JSON text: the same length for every
// row, so rows of equal width cost equal bytes.
func rowText(int) []byte { return []byte(`[0.5,0.25]`) }

func verts(lo, hi int32) []int32 {
	var vs []int32
	for v := lo; v < hi; v++ {
		vs = append(vs, v)
	}
	return vs
}

// TestCacheKeepsHotSetThroughColdBurst runs a hot set through the serving
// path's cache calls — a first query's hidden rows, the second query's
// lookup and final-row admission, k answers — then inserts twice the budget
// in cold hidden rows, as cold requests do. The hot set must still be
// answered whole and bit for bit: its entries carry k hits more than the
// cold rows' one. A lookup that falls short, and a re-insert of resident
// rows, are no use of the rows they touch.
func TestCacheKeepsHotSetThroughColdBurst(t *testing.T) {
	const d, n, budget = 8, 4000, 64 * 4 * 8
	c := newEmbedCache(budget, obs.NewRegistry())
	hot := verts(0, 4)
	pen, final := cacheRows(hot, d), cacheRows(verts(100, 104), d)
	c.putMany(1, hot, n, pen, nil, 0)
	c.putMany(2, hot, n, final, rowText, 0) // marks the penultimate rows
	if c.getMany(0, 1, hot, n, make([][]float32, len(hot))) != len(hot) {
		t.Fatal("the hot set's hidden rows left before its second query")
	}
	c.putMany(2, hot, n, final, rowText, 0)
	for k := 0; k < 3; k++ {
		if c.answer(0, 2, hot) == nil {
			t.Fatalf("answer %d: the hot set is not answered from the cache", k)
		}
	}

	hits := func() []int {
		var hs []int
		for _, v := range hot {
			hs = append(hs, c.idx[keyOf(1, v)].hits, c.idx[keyOf(2, v)].hits)
		}
		return hs
	}
	before := hits()
	if c.answer(0, 2, append(hot[:len(hot):len(hot)], 999)) != nil {
		t.Fatal("an answer with an uncached vertex was returned")
	}
	c.putMany(1, hot, n, pen, nil, 0)
	if after := hits(); !slices.Equal(after, before) {
		t.Fatalf("hits moved from %v to %v without a full answer", before, after)
	}

	for lo := int32(1000); lo < 1000+2*budget/(4*d); lo += 32 {
		cold := verts(lo, lo+32)
		c.putMany(1, cold, n, cacheRows(cold, d), nil, 0)
	}
	if c.stats().Evictions == 0 {
		t.Fatal("the cold burst evicted nothing")
	}
	es := c.answer(0, 2, hot)
	if es == nil {
		t.Fatal("the cold burst pushed the hot set out")
	}
	for i, v := range hot {
		assertRowEqual(t, "final row", v, es[2*i].row, final.Row(i))
		assertRowEqual(t, "penultimate row", v, es[2*i+1].row, pen.Row(i))
	}
}

// serveQuery makes the cache calls a two-layer server makes for one exact
// query of vs: the fully cached answer, else the penultimate rows' lookup,
// the insert of those it computed and the offer of the final rows, which
// are the penultimate ones doubled. It reports whether the cache answered.
func serveQuery(c *embedCache, vs []int32, d int) bool {
	const n = 4000
	if c.answer(0, 2, vs) != nil {
		return true
	}
	pen := cacheRows(vs, d)
	c.getMany(0, 1, vs, n, make([][]float32, len(vs)))
	c.putMany(1, vs, n, pen, nil, 0)
	c.putMany(2, vs, n, tensor.Scale(pen, 2), rowText, 0)
	return false
}

// TestCacheTakesInShiftedHotSet fills the budget with a hot set answered k
// times, then queries a disjoint set over and over with no version bump
// between: the new set must be answered from the cache within a few
// queries, bit for bit. Were new rows priced at or below every resident
// one, the clock would never move and the resident set would stay fixed
// until Invalidate.
func TestCacheTakesInShiftedHotSet(t *testing.T) {
	const d, k = 8, 5
	a, b := verts(0, 8), verts(8, 16)
	c := newEmbedCache(int64(len(a))*(2*4*d+int64(len(rowText(0)))), obs.NewRegistry())
	for q := 0; q < 3+k; q++ {
		serveQuery(c, a, d)
	}
	if c.answer(0, 2, a) == nil {
		t.Fatal("the first hot set is not answered from the cache")
	}
	for q := 1; !serveQuery(c, b, d); q++ {
		if q == 4*k {
			t.Fatalf("%d queries of a new hot set, none answered from the cache", q)
		}
	}
	pen := cacheRows(b, d)
	es := c.answer(0, 2, b)
	for i, v := range b {
		assertRowEqual(t, "final row", v, es[2*i].row, tensor.Scale(pen, 2).Row(i))
		assertRowEqual(t, "penultimate row", v, es[2*i+1].row, pen.Row(i))
	}
}

// TestCacheInvalidateResetsClock advances the clock by evicting a final
// row, then invalidates: the heap, index and bytes empty, the clock is back
// at zero, a put under the old generation inserts nothing, and a put under
// the new one prices its final row's two hits from a zero clock.
func TestCacheInvalidateResetsClock(t *testing.T) {
	const d, n = 8, 100
	c := newEmbedCache(4*d+int64(len(rowText(0))), obs.NewRegistry())
	c.putMany(1, []int32{1, 2}, n, cacheRows([]int32{1, 2}, d), rowText, 0)
	if c.clock <= 0 {
		t.Fatalf("clock %v after evicting a final row, want > 0", c.clock)
	}
	gen := c.Invalidate()
	if len(c.heap) != 0 || len(c.idx) != 0 || c.bytes != 0 || c.clock != 0 {
		t.Fatalf("after Invalidate: %d in the heap, %d indexed, %d bytes, clock %v",
			len(c.heap), len(c.idx), c.bytes, c.clock)
	}
	c.putMany(1, []int32{3}, n, cacheRows([]int32{3}, d), rowText, gen-1)
	if len(c.heap) != 0 || len(c.idx) != 0 {
		t.Fatal("a put under the old generation inserted a row")
	}
	c.putMany(1, []int32{3}, n, cacheRows([]int32{3}, d), rowText, gen)
	if e, ok := c.idx[keyOf(1, 3)]; !ok || len(c.heap) != 1 || e.prio != 2*float64(d)/float64(e.bytes()) {
		t.Fatalf("a put under the new generation: resident %v, heap %d", ok, len(c.heap))
	}
}
