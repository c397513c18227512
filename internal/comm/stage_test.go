package comm

import (
	"testing"
	"time"

	"neutronstar/internal/obs"
	"neutronstar/internal/tensor"
)

func TestStageOfMsg(t *testing.T) {
	cases := []struct {
		kind  MsgKind
		layer int
		recv  bool
		stage obs.Stage
		cell  int
	}{
		{KindRep, 2, false, obs.StageDepFetchSend, 2},
		{KindRep, 2, true, obs.StageDepFetchRecv, 2},
		{KindSample, 1, false, obs.StageDepFetchSend, 1},
		{KindSample, 1, true, obs.StageDepFetchRecv, 1},
		{KindGrad, 2, false, obs.StageMirrorScatter, 2},
		{KindGrad, 2, true, obs.StageMirrorScatter, 2},
		// Layer is a phase/step tag for all-reduce traffic, never a cell.
		{KindAllReduce, 7, false, obs.StageGradSync, 0},
		{KindAllReduce, 2, true, obs.StageGradSync, 0},
	}
	for _, c := range cases {
		stage, cell := StageOfMsg(&Message{Kind: c.kind, Layer: c.layer}, c.recv)
		if stage != c.stage || cell != c.cell {
			t.Fatalf("StageOfMsg(%v, layer=%d, recv=%v) = (%v, %d), want (%v, %d)",
				c.kind, c.layer, c.recv, stage, cell, c.stage, c.cell)
		}
	}
}

// TestStageByteConservationUnderFaults injects 5% drops and 5% duplicates
// and asserts exact byte conservation between send-side and receive-side
// attribution, both taken by the fabric itself: retransmissions and
// duplicate deliveries must count toward the originating stage exactly once.
func TestStageByteConservationUnderFaults(t *testing.T) {
	const (
		workers = 3
		perPair = 40
	)
	rec := obs.NewFlightRecorder()
	rec.BeginEpoch(1, workers, 2)
	ff := NewFabric(workers, faulted(t, "drop=0.05,dup=0.05,seed=11"), nil)
	for i := 0; i < workers; i++ {
		ff.Mailbox(i).SetStageRecorder(rec, i)
	}

	var wantRepBytes, wantGradBytes int64
	for from := 0; from < workers; from++ {
		for to := 0; to < workers; to++ {
			if from == to {
				continue
			}
			for k := 0; k < perPair; k++ {
				rows := tensor.New(2, 8)
				rows.Fill(float32(k))
				rep := &Message{From: from, To: to, Kind: KindRep,
					Epoch: 1, Layer: 1, Seq: k, Rows: rows}
				wantRepBytes += int64(rep.WireBytes())
				ff.Send(rep)
				grad := &Message{From: from, To: to, Kind: KindGrad,
					Epoch: 1, Layer: 2, Seq: k, Rows: tensor.New(1, 4)}
				wantGradBytes += int64(grad.WireBytes())
				ff.Send(grad)
			}
		}
	}
	// Drain: every logical message must arrive despite the injected faults.
	for to := 0; to < workers; to++ {
		mb := ff.Mailbox(to)
		for from := 0; from < workers; from++ {
			if from == to {
				continue
			}
			for k := 0; k < perPair; k++ {
				if mb.Wait(KindRep, 1, 1, k, from) == nil {
					t.Fatalf("lost rep %d->%d seq %d", from, to, k)
				}
				if mb.Wait(KindGrad, 1, 2, k, from) == nil {
					t.Fatalf("lost grad %d->%d seq %d", from, to, k)
				}
			}
		}
	}
	rec.EndEpoch(time.Second, 0)
	ff.Close()

	recs := rec.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	r := &recs[0]
	wantMsgs := int64(workers * (workers - 1) * perPair)

	// Dependency traffic: sender stage and receiver stage must balance to
	// the byte — a retransmit counted twice, or a dropped-then-retried
	// message counted zero times, breaks this equality.
	if got := r.StageBytes("dep_fetch_send"); got != wantRepBytes {
		t.Fatalf("send bytes = %d, want %d", got, wantRepBytes)
	}
	if got := r.StageBytes("dep_fetch_recv"); got != wantRepBytes {
		t.Fatalf("recv bytes = %d, want %d (conservation broken)", got, wantRepBytes)
	}
	if got := r.StageMsgs("dep_fetch_send"); got != wantMsgs {
		t.Fatalf("send msgs = %d, want %d", got, wantMsgs)
	}
	if got := r.StageMsgs("dep_fetch_recv"); got != wantMsgs {
		t.Fatalf("recv msgs = %d, want %d", got, wantMsgs)
	}
	// Mirror-gradient traffic shares one stage for both directions, so the
	// stage total must be exactly send + receive = 2× the logical volume.
	if got := r.StageBytes("mirror_scatter"); got != 2*wantGradBytes {
		t.Fatalf("mirror_scatter bytes = %d, want %d", got, 2*wantGradBytes)
	}
	if got := r.StageMsgs("mirror_scatter"); got != 2*wantMsgs {
		t.Fatalf("mirror_scatter msgs = %d, want %d", got, 2*wantMsgs)
	}
}

// TestStageSelfSendNotAttributed: From==To bypasses the network and must not
// contribute to either side's cells.
func TestStageSelfSendNotAttributed(t *testing.T) {
	rec := obs.NewFlightRecorder()
	rec.BeginEpoch(1, 1, 1)
	f := NewFabric(1, ProfileLocal, nil)
	defer f.Close()
	f.Mailbox(0).SetStageRecorder(rec, 0)
	msg := &Message{From: 0, To: 0, Kind: KindRep, Epoch: 1, Layer: 1, Rows: tensor.New(1, 4)}
	f.Send(msg)
	if f.Mailbox(0).Wait(KindRep, 1, 1, 0, 0) == nil {
		t.Fatal("self-send lost")
	}
	rec.EndEpoch(time.Millisecond, 0)
	if got := rec.Snapshot()[0].TotalBytes(); got != 0 {
		t.Fatalf("self-send attributed %d bytes", got)
	}
}

// TestStageRecorderTCPFabric: the mailbox binding covers the TCP path for
// free, because its Send decides in the same endpoints.decide and readLoop
// delivery funnels into the same deliver.
func TestStageRecorderTCPFabric(t *testing.T) {
	rec := obs.NewFlightRecorder()
	rec.BeginEpoch(1, 2, 1)
	f, err := NewTCPFabric(2, ProfileLocal, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ {
		f.Mailbox(i).SetStageRecorder(rec, i)
	}
	msg := &Message{From: 0, To: 1, Kind: KindRep, Epoch: 1, Layer: 1,
		Vertices: []int32{3}, Rows: tensor.New(1, 4)}
	want := int64(msg.WireBytes())
	f.Send(msg)
	got := f.Mailbox(1).Wait(KindRep, 1, 1, 0, 0)
	if got == nil {
		t.Fatal("message lost")
	}
	rec.EndEpoch(time.Millisecond, 0)
	r := rec.Snapshot()[0]
	if b := r.StageBytes("dep_fetch_recv"); b != want {
		t.Fatalf("tcp recv bytes = %d, want %d", b, want)
	}
	if b := r.StageBytes("dep_fetch_send"); b != want {
		t.Fatalf("tcp send bytes = %d, want %d", b, want)
	}
}
