package comm

import (
	"sync/atomic"
	"time"

	"neutronstar/internal/obs"
)

// Flight-recorder byte attribution. The exactly-once contract under faults:
//
//   - Send side: counted in the fabric's Send, through the sender's own
//     mailbox binding, before the fault model decides anything — one count
//     per Send, however many attempts were lost and whether or not a
//     duplicate follows.
//   - Receive side: counted in Mailbox.deliver after the dedup check, so a
//     duplicate that the at-least-once mailbox drops is never counted, and
//     whichever copy arrives first is counted exactly once.
//
// Self-sends (From == To) bypass the network and are not attributed on
// either side — local dependency handling is free, as in the real system.

// StageOfMsg maps a message to the flight-recorder stage and layer cell its
// bytes belong to. recv selects the receiver-side stage for dependency
// traffic (send and receive block different stages of different workers).
func StageOfMsg(msg *Message, recv bool) (obs.Stage, int) {
	switch msg.Kind {
	case KindGrad:
		// Mirror-gradient exchange: one stage covers both directions.
		return obs.StageMirrorScatter, msg.Layer
	case KindAllReduce:
		// The ring collective and the parameter server reuse Layer as a
		// step/phase tag, so gradient-sync traffic always lands in layer cell 0.
		return obs.StageGradSync, 0
	case KindSlice:
		// Tensor-parallel collectives: Seq 0 (slice-scatter) and Seq 1
		// (re-gather) move forward representations, Seq 2 (re-scatter) and
		// Seq 3 (gradient scatter) move backward gradients — the same stages
		// the per-vertex protocol uses, so DepTP traffic lands in the
		// existing stage taxonomy.
		if msg.Seq >= 2 {
			return obs.StageMirrorScatter, msg.Layer
		}
		if recv {
			return obs.StageDepFetchRecv, msg.Layer
		}
		return obs.StageDepFetchSend, msg.Layer
	default: // KindRep, KindSample: dependency fetch traffic.
		if recv {
			return obs.StageDepFetchRecv, msg.Layer
		}
		return obs.StageDepFetchSend, msg.Layer
	}
}

// stageRecorder binds a mailbox to one worker's cells of a flight recorder.
type stageRecorder struct {
	rec    *obs.FlightRecorder
	worker int
}

// stageRec is published atomically so SetStageRecorder is safe even if a
// fabric goroutine is already delivering.
type stageRec struct {
	p atomic.Pointer[stageRecorder]
}

// SetStageRecorder attributes worker's future sends and this mailbox's
// future deliveries to worker's cells of rec, stamps worker's sends while an
// epoch is open, and logs the waits this mailbox matches. A nil rec detaches. Works
// identically for the channel fabric and the TCP fabric, because both
// decide every send in endpoints.decide and funnel every delivery into
// deliver.
func (mb *Mailbox) SetStageRecorder(rec *obs.FlightRecorder, worker int) {
	if rec == nil {
		mb.stage.p.Store(nil)
		return
	}
	mb.stage.p.Store(&stageRecorder{rec: rec, worker: worker})
}

// stampSend counts one cross-worker Send of msg, of the given wire size, on
// the sender's side, and stamps msg's send time while an epoch is open. mb
// is the sender's mailbox. A duplicate is the stamped message again (its
// frame again, over TCP), so every copy carries the original stamp.
func (mb *Mailbox) stampSend(msg *Message, bytes int64) {
	sr := mb.stage.p.Load()
	if sr == nil {
		return
	}
	stage, layer := StageOfMsg(msg, false)
	sr.rec.AddTraffic(sr.worker, stage, layer, bytes, 1)
	if sent, ok := sr.rec.SendStamp(); ok {
		msg.Trace = TraceContext{SentUnixNano: sent}
	}
}

// recordDelivery counts one deduplicated delivery. Called from deliver with
// mb.mu held, after the dedup and closed checks.
func (mb *Mailbox) recordDelivery(msg *Message) {
	sr := mb.stage.p.Load()
	if sr == nil || msg.From == sr.worker {
		return
	}
	stage, layer := StageOfMsg(msg, true)
	sr.rec.AddTraffic(sr.worker, stage, layer, int64(msg.WireBytes()), 1)
}

// recordWaitMatch logs one matched Wait in the receiver's flight-recorder
// log: the receiver, the message's routing identity and send stamp, and
// the [waitStart, now] interval the receiver's goroutine spent blocked on it.
// Runs on the receiver's own goroutine, after the message is in hand, so it
// never holds mb.mu. Self-sends are not causal edges and are skipped, exactly
// mirroring the byte-attribution contract above.
func (mb *Mailbox) recordWaitMatch(sr *stageRecorder, msg *Message, waitStart time.Time) {
	if sr == nil || msg.From == sr.worker {
		return
	}
	sr.rec.OnWaitMatch(sr.worker, msg.From, msg.Kind.String(), msg.Layer, msg.Seq,
		msg.Trace.SentUnixNano, waitStart, time.Now())
}
