package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"neutronstar/internal/autograd"
	"neutronstar/internal/comm"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

// tapeLog collects every tape an engine's workers create: worker[k] made
// tapes[k].
type tapeLog struct {
	mu     sync.Mutex
	tapes  []*autograd.Tape
	worker []int
}

func (l *tapeLog) attach(e *Engine) {
	e.tapeHook = func(w int, tp *autograd.Tape) {
		l.mu.Lock()
		l.tapes = append(l.tapes, tp)
		l.worker = append(l.worker, w)
		l.mu.Unlock()
	}
}

// staticVariants are the three master–mirror forward configurations.
var staticVariants = map[string]func(*Options){
	"blocks":    func(*Options) {},
	"overlap":   func(o *Options) { o.Overlap, o.Ring = true, true },
	"broadcast": func(o *Options) { o.Broadcast = true },
}

// layer1Spy counts the representation messages that carry layer 1.
type layer1Spy struct {
	comm.Network
	mu   sync.Mutex
	reps int
}

func (s *layer1Spy) Send(msg *comm.Message) {
	if msg.Layer == 1 && msg.Kind == comm.KindRep {
		s.mu.Lock()
		s.reps++
		s.mu.Unlock()
	}
	s.Network.Send(msg)
}

// TestStaticLayer1MovesOnce: layer 1's communicated rows are features, bound
// at construction. On both master–mirror forward paths and under whole-block
// broadcast, a training epoch sends no layer-1 representation message, the
// flight record attributes no dependency fetch to layer 1, the held leaves
// (GAT) or the bound blocks that absorbed them (GCN) take no gradient, and
// the epoch's loss still matches the single-machine step.
func TestStaticLayer1MovesOnce(t *testing.T) {
	ds := testDataset(t, 220, 5, 43)
	for _, mode := range []Mode{DepComm, Hybrid} {
		for _, kind := range []nn.ModelKind{nn.GCN, nn.GAT} {
			for name, variant := range staticVariants {
				t.Run(fmt.Sprintf("%s/%s/%s", mode, kind, name), func(t *testing.T) {
					rec := obs.NewFlightRecorder()
					// A forced half-and-half split leaves Hybrid a layer-1
					// communicated set; DepComm ignores it.
					opts := Options{Workers: 4, Mode: mode, Model: kind, Seed: 44, Recorder: rec}
					variant(&opts)
					e, err := newTuned(ds, opts, forcedRatio(0.5))
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					spy := &layer1Spy{Network: e.fabric}
					e.fabric = spy
					var log tapeLog
					log.attach(e)

					loss := e.Train(1)[0].Loss
					for _, c := range rec.Tail(1)[0].Cells {
						fetch := c.Stage == obs.StageDepFetchSend.String() || c.Stage == obs.StageDepFetchRecv.String()
						if fetch && c.Layer == 1 {
							t.Fatalf("layer 1 cell %+v: nothing is fetched there", c)
						}
					}
					// A sum-decomposable layer 1 folded its held rows into the
					// bound blocks at construction; the others read them
					// through a leaf every epoch.
					static, heldRows := "h_held", 0
					if nn.SliceSeparable(kind) {
						static = "combined"
					}
					for _, p := range e.plans {
						for _, verts := range p.layers[0].held {
							heldRows += len(verts)
						}
					}
					if heldRows == 0 {
						t.Fatal("the configuration communicates nothing at layer 1")
					}
					held := 0
					for _, tp := range log.tapes {
						for _, v := range tp.Nodes() {
							switch v.Name() {
							case static:
								held++
								if v.Grad != nil {
									t.Fatalf("%s leaf of %d rows took a gradient", static, v.Value.Rows())
								}
							case "h_held", "combined":
								t.Fatalf("%s leaf on a %s tape", v.Name(), kind)
							case "h_recv", "h_chunk":
								if v.Value.Cols() == ds.Spec.FeatureDim {
									t.Fatalf("%s leaf carries feature rows", v.Name())
								}
							}
						}
					}
					if held == 0 {
						t.Fatalf("no %s leaf on any tape", static)
					}

					assertLossesClose(t, "epoch 1", []float64{loss}, referenceLosses(ds, kind, 1, 44), 2e-3)
					if spy.reps != 0 {
						t.Fatalf("%d layer-1 representation messages sent", spy.reps)
					}
				})
			}
		}
	}
}

// TestStaticCombineBindsOnce: a sum-decomposable layer 1 combines its static
// input at construction. Over every master–mirror policy × {GCN, GIN} × the
// three forward configurations, three epochs record no edge-stage or Combine
// op on a layer-1 tape and read the very tensors bindFeatures left, the
// losses match the single-machine steps, and a run killed after two epochs
// resumes to the uninterrupted loss bits — there is nothing bound to restore.
// Each subtest name ends in the replica storage, "off": replica rows are
// stored exact.
func TestStaticCombineBindsOnce(t *testing.T) {
	ds := testDataset(t, 220, 5, 43)
	const epochs, workers = 3, 4
	for _, mode := range []Mode{DepCache, DepComm, Hybrid, DepRep} {
		for _, kind := range []nn.ModelKind{nn.GCN, nn.GIN} {
			for name, variant := range staticVariants {
				t.Run(fmt.Sprintf("%s/%s/%s/off", mode, kind, name), func(t *testing.T) {
					// The forced half-and-half split is Hybrid's; the
					// pure policies ignore it.
					opts := Options{Workers: workers, Mode: mode, Model: kind, Seed: 44}
					variant(&opts)
					e, err := newTuned(ds, opts, forcedRatio(0.5))
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					bound := map[*tensor.Tensor]*float32{}
					for _, ws := range e.states {
						f := ws.plan.layers[0].flow.(*masterMirror)
						if ws.feat != nil {
							t.Fatalf("worker %d keeps its feature block beside the bound one", ws.id)
						}
						if edges := e.planner.Ledger(ws.id, e.decs[ws.id]).Layers[0].Edges; edges != 0 {
							t.Fatalf("worker %d's ledger counts %d layer-1 edges walked per epoch", ws.id, edges)
						}
						for _, b := range []*tensor.Tensor{f.boundOwned, f.boundCached} {
							if b != nil && b.Len() > 0 {
								bound[b] = &b.Data()[0]
							}
						}
					}
					var log tapeLog
					log.attach(e)

					var losses []float64
					for _, st := range e.Train(epochs) {
						losses = append(losses, st.Loss)
					}

					layer1 := 0
					for _, tp := range log.tapes {
						isLayer1 := false
						for _, v := range tp.Nodes() {
							isLayer1 = isLayer1 || v.Value.Cols() == ds.Spec.FeatureDim
						}
						if !isLayer1 {
							continue
						}
						layer1++
						for _, v := range tp.Nodes() {
							switch v.Name() {
							case "aggregate", "gather", "mul_colvec", "scale", "h_prev", "h_held":
								t.Fatalf("layer-1 tape holds a %s node", v.Name())
							case "combined":
								if data, ok := bound[v.Value]; !ok || (v.Value.Len() > 0 && data != &v.Value.Data()[0]) {
									t.Fatal("a layer-1 tape reads a block other than the ones bound at construction")
								}
							default:
								if v.Value.Cols() == ds.Spec.FeatureDim {
									t.Fatalf("layer-1 tape holds a feature-wide %s node", v.Name())
								}
							}
						}
					}
					if want := workers * epochs; layer1 != want {
						t.Fatalf("%d layer-1 tapes, want %d", layer1, want)
					}

					assertLossesClose(t, "bound", losses, referenceLosses(ds, kind, epochs, 44), 2e-3)

					first, err := newTuned(ds, opts, forcedRatio(0.5))
					if err != nil {
						t.Fatal(err)
					}
					first.Train(epochs - 1)
					snap := first.Snapshot()
					first.Close() // the "crash"
					second, err := newTuned(ds, opts, forcedRatio(0.5))
					if err != nil {
						t.Fatal(err)
					}
					defer second.Close()
					if err := second.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if st := second.RunEpoch(); math.Float64bits(st.Loss) != math.Float64bits(losses[epochs-1]) {
						t.Fatalf("resumed epoch %d loss %.17g, uninterrupted %.17g", st.Epoch, st.Loss, losses[epochs-1])
					}
				})
			}
		}
	}
}

// staticTapeNodes is the multiset of tape node names one training epoch
// records on four workers (dataset 220/5/43, seed 44, forced 50 % split), as
// the commit before layer 1 was bound recorded it —
// but for the received rows, since then one h_chunk leaf per peer and the
// concat_rows that assembles them where there was one h_recv leaf: models
// that are not sum-decomposable bind nothing new — and for GAT's fused edge
// stage: one edge_softmax per block in place of two E×1 gathers, an add, a
// leaky_relu and a segment_softmax (the add left is the self residual) — and
// for the loss head: one cross_entropy per worker in place of a log_softmax
// and an nll_loss.
var staticTapeNodes = map[string]string{
	"depcache/gat":  "add:12 add_bias:4 add_bias_relu:8 aggregate:12 concat_rows:4 cross_entropy:4 edge_softmax:12 gat_adst_4:4 gat_adst_8:4 gat_asrc_4:4 gat_asrc_8:4 gat_b_4:4 gat_b_8:4 gat_w_12x8:4 gat_w_8x4:4 gather:12 h_prev:8 matmul:8 row_dot:24",
	"depcache/sage": "add:12 add_bias:4 add_bias_relu:8 concat_rows:4 cross_entropy:4 gather:24 h_prev:8 matmul:36 relu:12 sage_b_4:4 sage_b_8:4 sage_wnbr_12x8:4 sage_wnbr_8x4:4 sage_wpool_12x12:4 sage_wpool_8x8:4 sage_wself_12x8:4 sage_wself_8x4:4 scatter_max:12",
	"depcomm/gat":   "add:8 add_bias:4 add_bias_relu:4 aggregate:8 concat_rows:12 cross_entropy:4 edge_softmax:8 gat_adst_4:4 gat_adst_8:4 gat_asrc_4:4 gat_asrc_8:4 gat_b_4:4 gat_b_8:4 gat_w_12x8:4 gat_w_8x4:4 gather:8 h_chunk:12 h_held:4 h_prev:8 matmul:16 row_dot:16",
	"depcomm/sage":  "add:8 add_bias:4 add_bias_relu:4 concat_rows:12 cross_entropy:4 gather:16 h_chunk:12 h_held:4 h_prev:8 matmul:24 relu:8 sage_b_4:4 sage_b_8:4 sage_wnbr_12x8:4 sage_wnbr_8x4:4 sage_wpool_12x12:4 sage_wpool_8x8:4 sage_wself_12x8:4 sage_wself_8x4:4 scatter_max:8",
	"hybrid/gat":    "add:12 add_bias:4 add_bias_relu:8 aggregate:12 concat_rows:16 cross_entropy:4 edge_softmax:12 gat_adst_4:4 gat_adst_8:4 gat_asrc_4:4 gat_asrc_8:4 gat_b_4:4 gat_b_8:4 gat_w_12x8:4 gat_w_8x4:4 gather:12 h_chunk:12 h_held:4 h_prev:8 matmul:16 row_dot:24",
	"hybrid/sage":   "add:12 add_bias:4 add_bias_relu:8 concat_rows:16 cross_entropy:4 gather:24 h_chunk:12 h_held:4 h_prev:8 matmul:36 relu:12 sage_b_4:4 sage_b_8:4 sage_wnbr_12x8:4 sage_wnbr_8x4:4 sage_wpool_12x12:4 sage_wpool_8x8:4 sage_wself_12x8:4 sage_wself_8x4:4 scatter_max:12",
}

// TestStaticCombineLeavesOtherModelsAlone: GAT and SAGE tapes record what
// they recorded before a sum-decomposable layer 1 was bound.
func TestStaticCombineLeavesOtherModelsAlone(t *testing.T) {
	ds := testDataset(t, 220, 5, 43)
	for _, mode := range []Mode{DepCache, DepComm, Hybrid} {
		for _, kind := range []nn.ModelKind{nn.GAT, nn.SAGE} {
			e, err := newTuned(ds, Options{Workers: 4, Mode: mode, Model: kind, Seed: 44}, forcedRatio(0.5))
			if err != nil {
				t.Fatal(err)
			}
			var log tapeLog
			log.attach(e)
			e.Train(1)
			e.Close()
			counts := map[string]int{}
			for _, tp := range log.tapes {
				for _, v := range tp.Nodes() {
					counts[v.Name()]++
				}
			}
			var parts []string
			for name, c := range counts {
				parts = append(parts, fmt.Sprintf("%s:%d", name, c))
			}
			sort.Strings(parts)
			key := fmt.Sprintf("%s/%s", mode, kind)
			if got := strings.Join(parts, " "); got != staticTapeNodes[key] {
				t.Errorf("%s tape nodes\n got %s\nwant %s", key, got, staticTapeNodes[key])
			}
		}
	}
}
