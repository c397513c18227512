package engine

import (
	"fmt"
	"sync"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// layer1Spy counts the representation messages that carry layer 1.
type layer1Spy struct {
	comm.Network
	mu   sync.Mutex
	reps int
}

func (s *layer1Spy) Send(msg *comm.Message) {
	if msg.Layer == 1 && (msg.Kind == comm.KindRep || msg.Kind == comm.KindBlock) {
		s.mu.Lock()
		s.reps++
		s.mu.Unlock()
	}
	s.Network.Send(msg)
}

// TestStaticLayer1MovesOnce: layer 1's communicated rows are features, bound
// at construction. On both master–mirror forward paths and under whole-block
// broadcast, a training epoch and an inference pass send no layer-1
// representation message, the flight record attributes no dependency fetch
// to layer 1, the held leaves take no gradient, and the logits still match
// the single-machine forward.
func TestStaticLayer1MovesOnce(t *testing.T) {
	ds := testDataset(t, 220, 5, 43)
	variants := map[string]func(*Options){
		"blocks":    func(*Options) {},
		"overlap":   func(o *Options) { o.Overlap, o.Ring = true, true },
		"broadcast": func(o *Options) { o.Broadcast = true },
	}
	for _, mode := range []Mode{DepComm, Hybrid} {
		for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT} {
			for name, variant := range variants {
				t.Run(fmt.Sprintf("%s/%s/%s", mode, kind, name), func(t *testing.T) {
					rec := obs.NewFlightRecorder()
					// A forced half-and-half split leaves Hybrid a layer-1
					// communicated set; DepComm ignores it.
					opts := Options{Workers: 4, Mode: mode, Model: kind, Seed: 44,
						ForceRatio: true, CacheRatio: 0.5, Recorder: rec}
					variant(&opts)
					e, err := NewEngine(ds, opts)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					spy := &layer1Spy{Network: e.fabric}
					e.fabric = spy
					var mu sync.Mutex
					var tapes []*autograd.Tape
					e.tapeHook = func(tp *autograd.Tape) {
						mu.Lock()
						tapes = append(tapes, tp)
						mu.Unlock()
					}

					e.Train(1)
					last, _ := rec.Last()
					for _, c := range last.Cells {
						fetch := c.Stage == obs.StageDepFetchSend.String() || c.Stage == obs.StageDepFetchRecv.String()
						if fetch && c.Layer == 1 {
							t.Fatalf("layer 1 cell %+v: nothing is fetched there", c)
						}
					}
					held := 0
					for _, tp := range tapes {
						for _, v := range tp.Nodes() {
							switch v.Name() {
							case "h_held":
								held++
								if v.Grad != nil {
									t.Fatalf("held leaf of %d rows took a gradient", v.Value.Rows())
								}
							case "h_recv", "h_chunk":
								if v.Value.Cols() == ds.Spec.FeatureDim {
									t.Fatalf("%s leaf carries feature rows", v.Name())
								}
							}
						}
					}
					if held == 0 {
						t.Fatal("no held leaf on any tape: the configuration communicates nothing at layer 1")
					}

					got := e.Predict()
					if want := ReferenceForward(ds.Graph, e.Model(), ds.Features); !got.AllClose(want, 1e-3) {
						t.Fatalf("distributed predict deviates, maxdiff %v", got.MaxAbsDiff(want))
					}
					if spy.reps != 0 {
						t.Fatalf("%d layer-1 representation messages sent", spy.reps)
					}
				})
			}
		}
	}
}
