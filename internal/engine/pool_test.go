package engine

import (
	"os"
	"runtime"
	"testing"

	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/tensor"
)

// TestPooledBitIdenticalToUnpooled is the core pooling-correctness contract:
// pool Gets zero their storage, or hand it to an op that overwrites it in
// full, so the exact same training run — losses, bitwise — must come out
// whether tensors are recycled or freshly allocated. GAT rides along under
// Hybrid and DepComm: its attention ops draw most of their outputs uncleared.
func TestPooledBitIdenticalToUnpooled(t *testing.T) {
	for _, base := range []Options{
		{Workers: 4, Mode: Hybrid, Seed: 11},
		{Workers: 4, Mode: Hybrid, Model: nn.GAT, Seed: 11},
		{Workers: 4, Mode: DepComm, Model: nn.GAT, Seed: 11},
	} {
		plain := trainLosses(t, base, 5)
		pooled := base
		pooled.Pool = tensor.NewPool()
		recycled := trainLosses(t, pooled, 5)
		for i := range plain {
			if plain[i] != recycled[i] {
				t.Fatalf("%s/%s epoch %d: pooled run diverges bitwise: %.17g vs %.17g",
					base.Mode, base.Model, i+1, plain[i], recycled[i])
			}
		}
	}
}

// TestPooledMatchesUnpooledAcrossModes repeats the bit-identity check on the
// other two dependency policies and on a deeper model, since they exercise
// different worker code paths (mirror exchange off, chunked aggregation).
func TestPooledMatchesUnpooledAcrossModes(t *testing.T) {
	for _, mode := range []Mode{DepCache, DepComm} {
		base := Options{Workers: 3, Mode: mode, Model: nn.GIN, Seed: 4, Layers: 3}
		plain := trainLosses(t, base, 3)
		pooled := base
		pooled.Pool = tensor.NewPool()
		recycled := trainLosses(t, pooled, 3)
		for i := range plain {
			if plain[i] != recycled[i] {
				t.Fatalf("%s epoch %d: %.17g vs %.17g", mode, i+1, plain[i], recycled[i])
			}
		}
	}
}

// TestPooledFaultsBitIdenticalToClean trains a pooled 4-worker engine under
// drops, a duplicate of every message and jitter. Faults
// move timing only, so the losses equal the clean pooled run's bit for bit;
// and every copy of a message reaches its mailbox before the epoch barrier,
// so the arenas stay on and recycle. CI runs it under GOMAXPROCS=4 -race.
func TestPooledFaultsBitIdenticalToClean(t *testing.T) {
	spec, err := comm.ParseFaultSpec("drop=0.05,dup=1,jitter=500us")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Workers: 4, Mode: DepComm, Seed: 11, Ring: true, LockFree: true, Overlap: true}
	clean := base
	clean.Pool = tensor.NewPool()
	want := trainLosses(t, clean, 3)
	pool := tensor.NewPool()
	faulted := base
	faulted.Pool, faulted.Profile.Fault = pool, spec
	got := trainLosses(t, faulted, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("epoch %d: faulted loss %.17g, clean %.17g", i+1, got[i], want[i])
		}
	}
	if s := pool.Stats(); s.Hits == 0 || s.BytesInFlight != 0 {
		t.Fatalf("pool %+v; want hits and nothing checked out past the barrier", s)
	}
}

// TestArenasDrainAtBarrier checks the epoch lifecycle: after Train returns
// (past the final barrier) every arena tensor has been released back to the
// pool, and the pool actually got reuse after the first epoch.
func TestArenasDrainAtBarrier(t *testing.T) {
	pool := tensor.NewPool()
	opts := Options{Workers: 4, Mode: Hybrid, Seed: 11, Pool: pool}
	trainLosses(t, opts, 3)
	s := pool.Stats()
	if s.BytesInFlight != 0 {
		t.Fatalf("%d bytes still checked out after the final barrier", s.BytesInFlight)
	}
	if s.Hits == 0 {
		t.Fatal("three epochs produced zero pool hits; arenas are not recycling")
	}
	// No hit-rate threshold here: under -race sync.Pool deliberately drops
	// items at random, so only the env-gated alloc test asserts reuse levels.
}

// TestPooledEpochAllocReduction is the CI perf gate for the tentpole: a
// pooled epoch must allocate at most 70% of what an unpooled epoch does.
// Gated behind NS_PERF_ALLOCS (meaningless under -race, noisy under load);
// the perf-smoke job runs it without -race.
func TestPooledEpochAllocReduction(t *testing.T) {
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	ds := testDataset(t, 600, 8, 3)
	measure := func(pool *tensor.Pool) uint64 {
		e, err := NewEngine(ds, Options{Workers: 4, Mode: Hybrid, Seed: 11, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.Train(1) // warm up: planner, caches, first-touch growth
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		e.Train(4)
		runtime.ReadMemStats(&m1)
		return (m1.Mallocs - m0.Mallocs) / 4
	}
	plain := measure(nil)
	pooled := measure(tensor.NewPool())
	t.Logf("allocs/epoch: unpooled %d, pooled %d (%.1f%%)",
		plain, pooled, 100*float64(pooled)/float64(plain))
	if float64(pooled) > 0.7*float64(plain) {
		t.Fatalf("pooled epoch allocates %d, unpooled %d; want <= 70%%", pooled, plain)
	}
}

// TestEpochArenaByteBudget gates what the fused kernels bought in bytes, next
// to the malloc-count gate above: everything a training epoch draws from its
// arenas stays checked out until the epoch barrier, so the pool's high-water
// mark over a run is the per-epoch arena footprint of all workers. Each row
// holds a model to a share of its figure before its kernel: GCN with per-edge
// tensors materialised (parent 4eb77ff), and GAT with its score column
// gathered onto edges and run through five E×1 ops before EdgeSoftmax. The
// policy is DepCache because its plan does not depend on the probed costs
// (which the kernels themselves move), so the figures repeat exactly.
func TestEpochArenaByteBudget(t *testing.T) {
	if os.Getenv("NS_PERF_ALLOCS") == "" {
		t.Skip("set NS_PERF_ALLOCS=1 to run alloc-budget tests")
	}
	for _, tc := range []struct {
		model       nn.ModelKind
		parentBytes float64
		share       float64
	}{
		{nn.GCN, 3977456, 0.4},
		{nn.GAT, 2891808, 0.7},
	} {
		pool := tensor.NewPool()
		e, err := NewEngine(testDataset(t, 600, 8, 3),
			Options{Workers: 4, Mode: DepCache, Model: tc.model, Seed: 11, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		e.Train(3)
		e.Close()
		got := pool.Stats().HighWaterBytes
		t.Logf("%s: arena bytes at the epoch barrier: %d (%.1f%% of the parent's %.0f)",
			tc.model, got, 100*float64(got)/tc.parentBytes, tc.parentBytes)
		if float64(got) > tc.share*tc.parentBytes {
			t.Errorf("%s: epoch checks out %d arena bytes; want <= %.0f%% of %.0f",
				tc.model, got, 100*tc.share, tc.parentBytes)
		}
	}
}
