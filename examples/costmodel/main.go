// Cost-model exploration: how Algorithm 4's decisions shift with the
// environment. The same graph is planned under a slow Ethernet profile, a
// fast InfiniBand profile, and a tight memory budget; the example prints the
// host's probed T_v/T_e, each profile's T_c and the resulting per-layer
// cache/communicate split — the mechanism behind every headline result in the paper.
package main

import (
	"fmt"
	"log"

	"neutronstar"
	"neutronstar/internal/comm"
	"neutronstar/internal/costmodel"
)

func main() {
	// Probe the host once, as Algorithm 4 line 1 does. T_c is not timed: it
	// derives from each network profile's bandwidth and latency.
	host := costmodel.Probe(0, 0)
	fmt.Printf("host factors (seconds per tensor element): Tv=%.2e Te=%.2e\n", host.Tv, host.Te)
	for _, p := range []comm.NetworkProfile{comm.ProfileECS, comm.ProfileIBV} {
		tc := costmodel.CommFactor(p.BytesPerSec, p.Latency)
		fmt.Printf("  %-3s %6.0f MB/s %6v/msg  Tc=%.2e (Tc/Tv=%.1f)\n",
			p.Name, p.BytesPerSec/1e6, p.Latency, tc, tc/host.Tv)
	}
	fmt.Println()

	ds, err := neutronstar.LoadDataset("pokec")
	if err != nil {
		log.Fatal(err)
	}
	type scenario struct {
		name string
		cfg  neutronstar.Config
	}
	base := neutronstar.Config{Workers: 8, Engine: neutronstar.EngineHybrid, Seed: 3}
	scenarios := []scenario{
		{"slow network (ecs)", withNet(base, neutronstar.NetworkECS)},
		{"fast network (ibv)", withNet(base, neutronstar.NetworkIBV)},
		{"ecs + 1MB/worker memory budget", withBudget(withNet(base, neutronstar.NetworkECS), 1<<20)},
	}
	for _, sc := range scenarios {
		s, err := neutronstar.NewSession(ds, sc.cfg)
		if err != nil {
			log.Fatal(err)
		}
		cached, communicated := s.DependencySummary()
		fmt.Printf("%s:\n", sc.name)
		for l := range cached {
			total := cached[l] + communicated[l]
			fmt.Printf("  layer %d: %6d/%6d deps cached (%.0f%%)\n",
				l+1, cached[l], total, 100*float64(cached[l])/float64(total))
		}
		fmt.Printf("  replica storage %.2f MB, planning %.1f ms\n\n",
			float64(s.CacheBytes())/1e6, s.PreprocessMillis())
		s.Close()
	}
	fmt.Println("Slower networks raise T_c, pushing dependencies toward caching;")
	fmt.Println("the memory budget caps replication and overflows back to comm.")
}

func withNet(c neutronstar.Config, n neutronstar.NetworkKind) neutronstar.Config {
	c.Network = n
	return c
}

func withBudget(c neutronstar.Config, b int64) neutronstar.Config {
	c.MemBudgetBytes = b
	return c
}
