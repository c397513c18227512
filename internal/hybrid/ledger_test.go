package hybrid

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"neutronstar/internal/costmodel"
)

// planHash fingerprints a plan's per-worker, per-layer sets and bits.
func planHash(plan []*Decision) uint64 {
	h := fnv.New64a()
	for _, d := range plan {
		for l := range d.R {
			fmt.Fprintf(h, "%v%v%v%v", d.R[l], d.C[l], d.TPAt(l+1), d.RepAt(l+1))
		}
	}
	return h.Sum64()
}

// unboundGolden is every mode's plan and cluster-wide Charge on one graph,
// for L ∈ {2, 3} under two cost regimes, as recorded before the work ledger
// replaced the per-replica price loop and the greedy's own subtree walk
// (mode order within each block: ModeHybrid .. ModeHybrid4).
var unboundGolden = []struct {
	L           int
	mode        Mode
	plan        uint64
	cache, comm float64
	bytes       int64
}{
	{2, 0, 0x7bc7fde3f60c8c2d, 1.1728e-05, 1.3679999999999996e-05, 23784},
	{2, 1, 0xc02e39a1351db103, 4.1472000000000005e-05, 0, 28832},
	{2, 2, 0x860447f0afd5d13f, 0, 3.3600000000000004e-05, 0},
	{2, 3, 0xbb0ac40451ab409, 9.2799999999999992e-06, 1.7039999999999999e-05, 21712},
	{2, 4, 0x96e7185f5584d41d, 0, 0.00010799999999999998, 0},
	{2, 5, 0x7bc7fde3f60c8c2d, 1.1728e-05, 1.3679999999999996e-05, 23784},
	{2, 6, 0x783d8c76ac29bbc7, 4.1472000000000005e-05, 0, 22944},
	{2, 7, 0x7bc7fde3f60c8c2d, 1.1728e-05, 1.3679999999999996e-05, 23784},
	{2, 0, 0xbd37d17a4fdb39cd, 1.9040000000000001e-05, 5.312000000000002e-05, 22272},
	{2, 1, 0xc02e39a1351db103, 0.00017376000000000002, 0, 28832},
	{2, 2, 0x860447f0afd5d13f, 0, 8.960000000000005e-05, 0},
	{2, 3, 0xbb0ac40451ab409, 2.9840000000000006e-05, 4.5440000000000012e-05, 21712},
	{2, 4, 0x96e7185f5584d41d, 0, 0.00028800000000000001, 0},
	{2, 5, 0xbd37d17a4fdb39cd, 1.9040000000000001e-05, 5.312000000000002e-05, 22272},
	{2, 6, 0x783d8c76ac29bbc7, 0.00017376000000000002, 0, 22944},
	{2, 7, 0xbd37d17a4fdb39cd, 1.9040000000000001e-05, 5.312000000000002e-05, 22272},
	{3, 0, 0x72193281ab837fa5, 1.4671999999999998e-05, 4.1039999999999987e-05, 24712},
	{3, 1, 0xc70c9db77ff7e7f, 9.3824000000000069e-05, 0, 36496},
	{3, 2, 0x6849a6cd83d3e9e3, 0, 6.719999999999998e-05, 0},
	{3, 3, 0x34fbb95e41817241, 4.8112000000000003e-05, 2.3039999999999996e-05, 30600},
	{3, 4, 0xd3ea3b405a470261, 0, 0.00021599999999999996, 0},
	{3, 5, 0x72193281ab837fa5, 1.4671999999999998e-05, 4.1039999999999987e-05, 24712},
	{3, 6, 0x8dd5c628fa3e23dd, 9.3824000000000069e-05, 0, 26816},
	{3, 7, 0x72193281ab837fa5, 1.4671999999999998e-05, 4.1039999999999987e-05, 24712},
	{3, 0, 0xe95fa2a2ff10d61f, 2.5040000000000004e-05, 0.00012928000000000009, 23040},
	{3, 1, 0xc70c9db77ff7e7f, 0.00038079999999999982, 0, 36496},
	{3, 2, 0x6849a6cd83d3e9e3, 0, 0.00017920000000000013, 0},
	{3, 3, 0x689440df503930d9, 0.00019111999999999995, 6.0800000000000028e-05, 30664},
	{3, 4, 0xd3ea3b405a470261, 0, 0.00057600000000000001, 0},
	{3, 5, 0xe95fa2a2ff10d61f, 2.5040000000000004e-05, 0.00012928000000000009, 23040},
	{3, 6, 0x8dd5c628fa3e23dd, 0.00038079999999999982, 0, 26816},
	{3, 7, 0xe95fa2a2ff10d61f, 2.5040000000000004e-05, 0.00012928000000000009, 23040},
}

// TestUnboundPricesUnchanged: with layer 1 not bound (SliceTP false: GAT,
// SAGE) the ledger prices what the per-replica loop priced, to a relative
// 1e-12 (the sums are now taken over counts, not per row), and every mode
// plans the same sets.
func TestUnboundPricesUnchanged(t *testing.T) {
	g, p := testSetup(t, 150, 5, 4, 1)
	i := 0
	for _, dims := range [][]int{{8, 8, 4}, {8, 8, 8, 4}} {
		for _, c := range []costmodel.Costs{{Tv: 1e-8, Te: 2e-9, Tc: 3e-8}, {Tv: 2e-8, Te: 1e-8, Tc: 8e-8}} {
			pl := &Planner{Graph: g, Part: p, Dims: dims, Costs: c, RepBudget: -1, RepCompression: 2, Ratio: 0.5}
			for m := ModeHybrid; m <= ModeHybrid4; m++ {
				want := unboundGolden[i]
				i++
				plan, err := pl.DecideAll(m)
				if err != nil {
					t.Fatal(err)
				}
				var cache, comm float64
				var bytes int64
				for w, d := range plan {
					ch := pl.Charge(w, d)
					cache, comm, bytes = cache+ch.CacheCost, comm+ch.CommCost, bytes+ch.Bytes
				}
				near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
				if planHash(plan) != want.plan || !near(cache, want.cache) || !near(comm, want.comm) || bytes != want.bytes {
					t.Fatalf("L=%d mode %d: plan %#x priced %.17g/%.17g/%d, recorded %#x priced %.17g/%.17g/%d",
						want.L, m, planHash(plan), cache, comm, bytes, want.plan, want.cache, want.comm, want.bytes)
				}
			}
		}
	}
}
