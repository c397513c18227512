package tensor

import (
	"fmt"
	"os"
	"sync"
	"testing"
)

func TestBucketFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1 << 10, 10}, {(1 << 10) + 1, 11},
		{1 << maxBucket, maxBucket}, {(1 << maxBucket) + 1, -1},
	}
	for _, tc := range cases {
		if got := bucketFor(tc.n); got != tc.want {
			t.Fatalf("bucketFor(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestPoolGetMatchesNew(t *testing.T) {
	// A pooled Get must be indistinguishable from New: right shape, all
	// zeroes — even when reusing a buffer that was full of garbage.
	p := NewPool()
	dirty := p.Get(8, 8)
	dirty.Fill(3.5)
	p.Put(dirty)
	got := p.Get(5, 7) // smaller shape from the same bucket
	if got.Rows() != 5 || got.Cols() != 7 {
		t.Fatalf("shape %dx%d", got.Rows(), got.Cols())
	}
	if !got.Equal(New(5, 7)) {
		t.Fatal("pooled Get returned non-zero data")
	}
}

// TestPoolHitAndMissStats holds the counters to what every run guarantees.
// The race runtime makes sync.Pool drop a Put item at random, so a Get after
// a Put may miss: every Get counts as exactly one hit or miss, a hit hands
// back the buffer that was Put, and the bytes in flight are exact either way.
func TestPoolHitAndMissStats(t *testing.T) {
	p := NewPool()
	a := p.Get(10, 10) // miss: the pool is empty
	if s := p.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first Get: hits=%d misses=%d, want 0/1", s.Hits, s.Misses)
	}
	p.Put(a)
	b := p.Get(10, 10) // a hit when the bucket kept a
	hit := p.Stats().Hits == 1
	if hit && &b.data[0] != &a.data[0] {
		t.Fatal("a hit handed back storage other than the buffer Put")
	}
	p.Put(b)
	c := p.Get(2000, 2000) // miss: nothing was Put in its bucket
	s := p.Stats()
	if s.Hits+s.Misses != 3 || s.Misses < 2 {
		t.Fatalf("hits=%d misses=%d after 3 Gets, 2 of them certain misses", s.Hits, s.Misses)
	}
	if want := 4 * int64(2000*2000); s.BytesInFlight != want {
		t.Fatalf("in flight %d, want %d", s.BytesInFlight, want)
	}
	if s.HighWaterBytes < s.BytesInFlight {
		t.Fatalf("high water %d below in-flight %d", s.HighWaterBytes, s.BytesInFlight)
	}
	if r, want := s.HitRate(), float64(s.Hits)/3; r != want {
		t.Fatalf("hit rate %v, want %v", r, want)
	}
	p.Put(c)
	if got := p.Stats().BytesInFlight; got != 0 {
		t.Fatalf("in flight after final Put: %d", got)
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	p := NewPool()
	a := p.Get(4, 4)
	p.Put(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	p.Put(a)
}

func TestPoolDropsForeignCapacities(t *testing.T) {
	// Tensors the pool didn't size (views, FromSlice results) must not enter
	// a bucket: a RowSlice has a truncated capacity that would violate the
	// bucket's >= invariant for later Gets.
	p := NewPool()
	base := New(8, 8)
	view := base.RowSlice(2, 5) // cap is not a power of two matching len
	p.Put(view)
	got := p.Get(8, 8)
	if &got.Data()[0] == &base.Data()[16] {
		t.Fatal("pool handed back a view's storage")
	}
	// FromSlice with an exact power-of-two backing IS poolable; that's fine.
	if p.Stats().Misses == 0 {
		t.Fatal("expected the post-drop Get to miss")
	}
}

func TestPoolOversizedNeverRetained(t *testing.T) {
	p := NewPool()
	big := p.Get(1, (1<<maxBucket)+1)
	p.Put(big)
	s := p.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d", s.Misses)
	}
	if s.BytesInFlight != 0 {
		t.Fatalf("oversized Put did not untrack: %d bytes in flight", s.BytesInFlight)
	}
}

func TestNilPoolAndArenaAreNew(t *testing.T) {
	var p *Pool
	tt := p.Get(3, 4)
	if tt.Rows() != 3 || tt.Cols() != 4 {
		t.Fatal("nil pool Get wrong shape")
	}
	p.Put(tt) // no-op
	if s := p.Stats(); s != (PoolStats{}) {
		t.Fatalf("nil pool stats %+v", s)
	}
	var a *Arena = p.Arena()
	if a != nil {
		t.Fatal("nil pool produced a non-nil arena")
	}
	u := a.Get(2, 2)
	if u.Rows() != 2 || a.Live() != 0 {
		t.Fatal("nil arena misbehaved")
	}
	a.Release() // no-op
}

// TestArenaReleaseRecycles: Release returns every tensor to the pool, and
// the next epoch's identical shapes draw from the buckets. The race runtime
// makes sync.Pool drop items at random, so each draw may miss; every draw
// counts as exactly one hit or miss, and a hit hands back a released buffer.
func TestArenaReleaseRecycles(t *testing.T) {
	p := NewPool()
	a := p.Arena()
	x, y := a.Get(16, 16), a.Get(16, 16)
	if a.Live() != 2 {
		t.Fatalf("live = %d", a.Live())
	}
	a.Release()
	if a.Live() != 0 {
		t.Fatalf("live after release = %d", a.Live())
	}
	if got := p.Stats().BytesInFlight; got != 0 {
		t.Fatalf("in flight after release: %d", got)
	}
	released := map[*float32]bool{&x.data[0]: true, &y.data[0]: true}
	for i := 0; i < 2; i++ {
		before := p.Stats()
		z := a.Get(16, 16)
		after := p.Stats()
		if after.Hits+after.Misses != before.Hits+before.Misses+1 {
			t.Fatalf("draw %d counted %d hits and %d misses", i, after.Hits-before.Hits, after.Misses-before.Misses)
		}
		if after.Hits > before.Hits && !released[&z.data[0]] {
			t.Fatalf("draw %d hit but is not a released buffer", i)
		}
	}
	if got, want := p.Stats().BytesInFlight, int64(2*4*16*16); got != want {
		t.Fatalf("in flight %d, want %d", got, want)
	}
}

// TestArenaGetUnzeroed: the unzeroed draw is arena-owned like Get's, comes
// from the same buckets, and skips only the clear — a recycled buffer comes
// back as its last owner left it, while a nil arena's is New's zeroes.
func TestArenaGetUnzeroed(t *testing.T) {
	p := NewPool()
	a := p.Arena()
	a.Get(4, 4).Fill(2.5)
	a.Release()
	before := p.Stats().Hits
	got := a.GetUnzeroed(3, 5) // 15 elements: the same 16-element bucket
	if got.Rows() != 3 || got.Cols() != 5 || a.Live() != 1 {
		t.Fatalf("shape %dx%d, live %d", got.Rows(), got.Cols(), a.Live())
	}
	// The race runtime drops sync.Pool items at random, so only a hit is
	// known to be the recycled buffer.
	if p.Stats().Hits > before {
		for i, v := range got.Data() {
			if v != 2.5 {
				t.Fatalf("element %d = %v: the recycled buffer was cleared", i, v)
			}
		}
	}
	a.Release()
	if got := p.Stats().BytesInFlight; got != 0 {
		t.Fatalf("%d bytes in flight after Release", got)
	}
	var nilArena *Arena
	if u := nilArena.GetUnzeroed(2, 3); !u.Equal(New(2, 3)) {
		t.Fatal("nil arena GetUnzeroed is not New")
	}
}

func TestPoolConcurrentGetPut(t *testing.T) {
	// Race-detector fodder: many goroutines churning the same buckets and
	// one arena, like an epoch's workers sharing the engine pool.
	p := NewPool()
	a := p.Arena()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				t1 := p.Get(g+1, i%32+1)
				t1.Fill(float32(g))
				p.Put(t1)
				a.Get(4, g+1)
			}
		}(g)
	}
	wg.Wait()
	a.Release()
	if got := p.Stats().BytesInFlight; got != 0 {
		t.Fatalf("leaked %d bytes in flight", got)
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want %q", want)
		}
		if msg := fmt.Sprint(r); want != "" && !containsStr(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestMatMulIntoAliasingPanics(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	mustPanic(t, "aliases", func() { MatMulInto(a, a, b) })
	mustPanic(t, "aliases", func() { MatMulInto(b, a, b) })
	mustPanic(t, "aliases", func() { MatMulTAInto(a, a, b) })
	mustPanic(t, "aliases", func() { MatMulTBInto(b, a, b) })
	// A view of an operand aliases too — partial overlap is the insidious case.
	big := New(8, 4)
	mustPanic(t, "aliases", func() { MatMulInto(big.RowSlice(0, 4), big.RowSlice(2, 6), b) })
	// Distinct tensors are fine.
	MatMulInto(New(4, 4), a, b)
}

// TestPooledGEMMAllocFree is the CI perf gate for the kernel path: with
// destination storage in hand, a serial-sized GEMM of any of the three forms
// must not allocate — MatMulTBInto's bᵀ staging included, on a ReLU-sparse
// operand as on a dense one. Gated behind NS_PERF_ALLOCS because alloc
// counting is meaningless under -race and on heavily loaded CI machines is
// only run in the dedicated perf-smoke job.
func TestPooledGEMMAllocFree(t *testing.T) {
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	rng := NewRNG(1)
	a := RandNormal(32, 32, 0, 1, rng) // 32*32*32 ops, below the parallel threshold
	b := RandNormal(32, 32, 0, 1, rng)
	out := New(32, 32)
	for _, operand := range []string{"dense", "relu"} {
		if operand == "relu" {
			a = ReLU(a)
		}
		for _, g := range []struct {
			name string
			fn   func(dst, a, b *Tensor)
		}{{"MatMulInto", MatMulInto}, {"MatMulTAInto", MatMulTAInto}, {"MatMulTBInto", MatMulTBInto}} {
			if n := testing.AllocsPerRun(100, func() { g.fn(out, a, b) }); n > 0 {
				t.Fatalf("%s (%s a) allocated %v times per call, want 0", g.name, operand, n)
			}
		}
	}
	bias := RandNormal(1, 32, 0, 1, rng)
	if n := testing.AllocsPerRun(100, func() { AddBiasReLUInto(out, a, bias) }); n > 0 {
		t.Fatalf("AddBiasReLUInto allocated %v times per call, want 0", n)
	}
	p := NewPool()
	p.Put(p.Get(32, 32))
	if n := testing.AllocsPerRun(100, func() { p.Put(p.Get(32, 32)) }); n > 0 {
		t.Fatalf("pool Get/Put cycle allocated %v times per call, want 0", n)
	}
}
