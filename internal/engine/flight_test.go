package engine

import (
	"math"
	"testing"

	"neutronstar/internal/obs"
)

// trainRecorded trains a small engine under a flight recorder and returns
// the completed records.
func trainRecorded(t *testing.T, opts Options, epochs int) []obs.EpochRecord {
	t.Helper()
	ds := testDataset(t, 600, 6, 21)
	rec := obs.NewFlightRecorder()
	opts.Recorder = rec
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Train(epochs)
	recs := rec.Snapshot()
	if len(recs) != epochs {
		t.Fatalf("recorded %d epochs, want %d", len(recs), epochs)
	}
	return recs
}

// TestFlightCoverageHybrid asserts the accounting identity on a real run:
// per epoch, the attributed stage seconds (excluding checkpoint) must sum to
// workers × wall within 2% — the flight recorder has no untracked bucket.
func TestFlightCoverageHybrid(t *testing.T) {
	recs := trainRecorded(t, Options{
		Workers: 4, Mode: Hybrid, Ring: true, LockFree: true, Overlap: true, Seed: 5,
	}, 3)
	for _, r := range recs {
		var covered float64
		for _, s := range obs.StageNames() {
			if s == "checkpoint" {
				continue
			}
			covered += r.StageSeconds(s)
		}
		span := float64(r.Workers) * r.WallSeconds
		// 2% relative plus a 2ms absolute floor: tiny epochs on a loaded CI
		// host have scheduling noise bigger than their stage times.
		tol := 0.02*span + 0.002
		if diff := math.Abs(covered - span); diff > tol {
			t.Fatalf("epoch %d: stage sum %.6fs vs %d×wall %.6fs (diff %.6fs > tol %.6fs)",
				r.Epoch, covered, r.Workers, r.WallSeconds, diff, tol)
		}
	}
}

// TestEveryRecordIsAView: a plain recorder, switched on by nothing, derives
// each epoch's whole report from its workers' logs — every multi-worker epoch
// carries a critical path covering the wall, and each worker's barrier cell
// is the wall its stage cells leave uncovered.
func TestEveryRecordIsAView(t *testing.T) {
	recs := trainRecorded(t, Options{Workers: 3, Mode: DepComm, Ring: true, Seed: 5}, 3)
	for _, r := range recs {
		p := r.CritPath
		if p == nil || len(p.Spans) == 0 {
			t.Fatalf("epoch %d: no critical path", r.Epoch)
		}
		if math.Abs(p.CoveredSeconds-r.WallSeconds) > 1e-9 || p.WallSeconds != r.WallSeconds {
			t.Fatalf("epoch %d: path covers %.9fs of a %.9fs wall", r.Epoch, p.CoveredSeconds, r.WallSeconds)
		}
		busy := make([]float64, r.Workers)
		barrier := make([]float64, r.Workers)
		for _, c := range r.Cells {
			switch c.Stage {
			case "barrier":
				barrier[c.Worker] += c.Seconds
			case "checkpoint":
			default:
				busy[c.Worker] += c.Seconds
			}
		}
		for w := range busy {
			if want := max(r.WallSeconds-busy[w], 0); math.Abs(barrier[w]-want) > 1e-9 {
				t.Fatalf("epoch %d worker %d: barrier %.9fs, wall − stages %.9fs", r.Epoch, w, barrier[w], want)
			}
		}
	}
}

// TestFlightBytesDepComm: a DepComm plan must move dependency traffic every
// epoch, with send-side and receive-side attribution in exact balance on a
// clean fabric.
func TestFlightBytesDepComm(t *testing.T) {
	recs := trainRecorded(t, Options{Workers: 4, Mode: DepComm, Seed: 5}, 2)
	for _, r := range recs {
		send := r.StageBytes("dep_fetch_send")
		recv := r.StageBytes("dep_fetch_recv")
		if send == 0 {
			t.Fatalf("epoch %d: DepComm moved no dependency bytes", r.Epoch)
		}
		if send != recv {
			t.Fatalf("epoch %d: send %d bytes != recv %d bytes", r.Epoch, send, recv)
		}
		if r.StageBytes("mirror_scatter") == 0 {
			t.Fatalf("epoch %d: no mirror-gradient traffic", r.Epoch)
		}
		if r.StageBytes("grad_sync") == 0 {
			t.Fatalf("epoch %d: no all-reduce traffic", r.Epoch)
		}
	}
}

// TestFlightBytesDepCacheSingle: one worker caching everything has no peers,
// so the recorder must attribute exactly zero network traffic.
func TestFlightBytesDepCacheSingle(t *testing.T) {
	recs := trainRecorded(t, Options{Workers: 1, Mode: DepCache, Seed: 5}, 2)
	for _, r := range recs {
		if b := r.TotalBytes(); b != 0 {
			t.Fatalf("epoch %d: single-worker DepCache attributed %d bytes", r.Epoch, b)
		}
		if r.StageSeconds("forward") == 0 {
			t.Fatalf("epoch %d: no forward time recorded", r.Epoch)
		}
	}
}

// TestFlightRecorderOffIsNilSafe: a nil Recorder must leave the engine
// untouched (the disabled path of every hook is a nil-receiver no-op).
func TestFlightRecorderOffIsNilSafe(t *testing.T) {
	ds := testDataset(t, 300, 5, 9)
	eng, err := NewEngine(ds, Options{Workers: 2, Mode: Hybrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := eng.Train(2)
	if st[1].Loss <= 0 {
		t.Fatalf("loss %v", st[1].Loss)
	}
	if rep := eng.CostReport(); rep != nil {
		t.Fatalf("CostReport without recorder = %+v, want nil", rep)
	}
}
