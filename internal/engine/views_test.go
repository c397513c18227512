package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
)

// spanStages is DESIGN §9's span tree as data: the stage (or, for the
// collective that is one name over a send half and a receive half, the
// stages) each class-bearing span name is emitted in.
var spanStages = map[string][]obs.Stage{
	"epoch_setup":     {obs.StageForward},
	"tape_setup":      {obs.StageForward},
	"pre_transform":   {obs.StageForward},
	"compute_cached":  {obs.StageForward},
	"compute_owned":   {obs.StageForward},
	"edge_stage":      {obs.StageForward},
	"vertex_stage":    {obs.StageForward},
	"tp_edge_stage":   {obs.StageForward},
	"tp_vertex_stage": {obs.StageForward},

	"send_dep_nbr":     {obs.StageDepFetchSend},
	"tp_slice_scatter": {obs.StageDepFetchSend},
	"recv_chunk":       {obs.StageDepFetchRecv},
	"tp_slice_gather":  {obs.StageDepFetchRecv},
	"tp_re_gather":     {obs.StageDepFetchSend, obs.StageDepFetchRecv},

	"loss_backward":    {obs.StageBackward},
	"seed_backward":    {obs.StageBackward},
	"tape_backward":    {obs.StageBackward},
	"tp_edge_backward": {obs.StageBackward},
	"collect_grads":    {obs.StageBackward},

	"post_to_dep_nbr":   {obs.StageMirrorScatter},
	"recv_mirror_grads": {obs.StageMirrorScatter},
	"tp_re_scatter":     {obs.StageMirrorScatter},
	"tp_grad_scatter":   {obs.StageMirrorScatter},

	"allreduce":    {obs.StageGradSync},
	"param_server": {obs.StageGradSync},
}

// stampedBytes sums the wire bytes of a tracer's delivery stamps.
func stampedBytes(tr *obs.Tracer) int64 {
	var n int64
	for _, d := range tr.Deliveries() {
		n += d.Bytes
	}
	return n
}

// TestViewsAgreePerDataflow runs every dataflow with every sink attached and
// compares the views of the one interval stream: per worker and epoch the
// main-lane spans of each busy class hold exactly the nanoseconds the cells
// of that class's stages were charged (same clock reads, so no tolerance),
// every span carries its stage's class, the overlap path's lane spans exist
// and charge no cell, the fabric's delivery stamps hold the bytes the cells'
// receive side was charged, and flow arrows reach the Chrome trace.
func TestViewsAgreePerDataflow(t *testing.T) {
	const workers, epochs, layers = 3, 2, 2
	rows := []struct {
		name    string
		mode    Mode
		model   nn.ModelKind
		overlap bool
		// want names a span only this dataflow (and path) emits.
		want string
	}{
		{"masterMirror/gcn", Hybrid, nn.GCN, false, "recv_chunk"},
		{"masterMirror/gcn/chunked", Hybrid, nn.GCN, true, "vertex_stage"},
		{"masterMirror/gat", Hybrid, nn.GAT, false, "pre_transform"},
		{"masterMirror/gat/overlap", Hybrid, nn.GAT, true, "pre_transform"},
		{"tpSlice/gcn", DepTP, nn.GCN, true, "tp_re_gather"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			ds := testDataset(t, 300, 6, 21)
			rec := obs.NewFlightRecorder()
			tr := obs.NewTracer()
			// Half cached, half fetched: both sides of the master–mirror
			// dataflow run whatever the cost probe measured.
			eng, err := newTuned(ds, Options{
				Workers: workers, Mode: row.mode, Model: row.model, Seed: 5,
				Ring: true, LockFree: true, Overlap: row.overlap,
				Recorder: rec, Tracer: tr,
			}, forcedRatio(0.5))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			eng.Train(epochs)
			recs := rec.Snapshot()
			spans := tr.Snapshot()

			// Traffic: every cross-worker message is charged to one cell of
			// its sender and one of its receiver, and stamped once on delivery.
			var cellBytes int64
			for _, r := range recs {
				for _, c := range r.Cells {
					cellBytes += c.Bytes
				}
			}
			if stamped := stampedBytes(tr); stamped == 0 || stamped*2 != cellBytes {
				t.Fatalf("delivery stamps hold %d bytes, the cells' receive side %d (Σ cells %d)",
					stamped, cellBytes/2, cellBytes)
			}

			// The lane of a training epoch is the background sender's.
			onLane := func(sp obs.SpanData) bool {
				return row.overlap && row.mode == Hybrid && sp.Name == "send_dep_nbr"
			}
			names := map[string]int{}
			var laneNanos int64
			for _, sp := range spans {
				names[sp.Name]++
				if sp.Class == obs.ClassNone {
					continue
				}
				stages, ok := spanStages[sp.Name]
				if !ok {
					t.Fatalf("span %q is not in the span tree", sp.Name)
				}
				for _, s := range stages {
					if sp.Class != s.Class() {
						t.Fatalf("span %q has class %d, its stage %v is class %d", sp.Name, sp.Class, s, s.Class())
					}
				}
				if onLane(sp) {
					laneNanos += int64(sp.Duration())
				}
			}
			if names[row.want] == 0 {
				t.Fatalf("no %q span: the run did not take the path this row is for (%v)", row.want, names)
			}
			if names["epoch"] != workers*epochs || names["layer"] != workers*epochs*layers ||
				names["backward"] != workers*epochs*layers {
				t.Fatalf("structural groups: %d epoch, %d layer, %d backward", names["epoch"], names["layer"], names["backward"])
			}

			for _, g := range spans {
				if g.Name != "epoch" {
					continue
				}
				// The engine's epoch tags are zero-based, the records' one-based.
				r := recs[g.Attr("epoch").(int64)]
				var spanNanos, cellNanos [2]int64
				for _, sp := range spans {
					if sp.Worker == g.Worker && sp.Class != obs.ClassNone && !onLane(sp) &&
						sp.Start >= g.Start && sp.End <= g.End {
						spanNanos[sp.Class] += int64(sp.Duration())
					}
				}
				for _, c := range r.Cells {
					if c.Worker != g.Worker || c.Stage == "barrier" || c.Stage == "checkpoint" {
						continue
					}
					for i, name := range obs.StageNames() {
						if name == c.Stage {
							cellNanos[obs.Stage(i).Class()] += int64(math.Round(c.Seconds * 1e9))
						}
					}
				}
				if spanNanos != cellNanos {
					t.Fatalf("worker %d epoch %d: spans hold %v ns (compute, comm), cells %v",
						g.Worker, r.Epoch, spanNanos, cellNanos)
				}
			}

			if row.overlap && row.mode == Hybrid {
				if laneNanos == 0 {
					t.Fatal("overlap run has no lane spans")
				}
				for _, r := range recs {
					if sec := r.StageSeconds("dep_fetch_send"); sec != 0 {
						t.Fatalf("epoch %d: the background sender charged %.9fs to a cell", r.Epoch, sec)
					}
				}
			}

			flows := tr.Flows()
			if len(flows) == 0 {
				t.Fatal("no flow arrows")
			}
			for _, f := range flows {
				if f.ID == 0 || f.End < f.At {
					t.Fatalf("bad flow %+v", f)
				}
			}
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf, nil); err != nil {
				t.Fatal(err)
			}
			var events []map[string]any
			if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
				t.Fatal(err)
			}
			arrows := 0
			for _, ev := range events {
				if ev["ph"] == "s" || ev["ph"] == "f" {
					arrows++
				}
			}
			if arrows != 2*len(flows) {
				t.Fatalf("Chrome trace draws %d arrow halves for %d flows", arrows, len(flows))
			}
		})
	}
}
