// Social-network scenario: the workload the paper's introduction motivates —
// classifying users of a large social graph (a Pokec-scale synthetic) with
// full-graph distributed training. The example compares all three dependency
// engines on the throttled "ECS" network and shows where Hybrid's advantage
// comes from, including the utilisation profile of each engine.
package main

import (
	"fmt"
	"log"

	"neutronstar"
)

func main() {
	ds, err := neutronstar.LoadDataset("pokec")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social graph %s: %d users, %d follow edges\n\n",
		ds.Name(), ds.NumVertices(), ds.NumEdges())

	const epochs = 3
	for _, engineKind := range []neutronstar.EngineKind{
		neutronstar.EngineDepCache,
		neutronstar.EngineDepComm,
		neutronstar.EngineHybrid,
	} {
		s, err := neutronstar.NewSession(ds, neutronstar.Config{
			Workers: 8,
			Engine:  engineKind,
			Model:   neutronstar.ModelGCN,
			Network: neutronstar.NetworkECS,
			Ring:    true, LockFree: true, Overlap: true,
			Seed: 7,
		})
		if err != nil {
			log.Fatal(err)
		}

		var totalMs float64
		var lastLoss float64
		s.TrainEpoch() // warmup
		for _, ep := range s.Train(epochs) {
			totalMs += ep.Millis
			lastLoss = ep.Loss
		}
		cached, communicated := s.DependencySummary()
		// Status reads the always-on flight recorder: bytes and busy shares
		// over the trained epochs, warmup included.
		st := s.Status()
		fmt.Printf("%-9s  %6.0f ms/epoch  loss %.3f  replicas %6.1f MB  sent %6.1f MB\n",
			engineKind, totalMs/epochs, lastLoss,
			float64(s.CacheBytes())/1e6, float64(st.BytesSent)/1e6)
		for l := range cached {
			fmt.Printf("           layer %d: %5d cached / %5d communicated deps\n",
				l+1, cached[l], communicated[l])
		}
		var compute, comm float64
		for w := range st.ComputeBusy {
			compute += st.ComputeBusy[w] / float64(st.Workers)
			comm += st.CommBusy[w] / float64(st.Workers)
		}
		fmt.Printf("           busy: compute %.0f%%, comm %.0f%% of wall time\n\n", 100*compute, 100*comm)
		s.Close()
	}
	fmt.Println("Hybrid caches the cheap-to-recompute dependencies and communicates")
	fmt.Println("the expensive ones, landing below both pure strategies.")
}
