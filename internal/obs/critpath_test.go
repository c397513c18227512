package obs

import (
	"math"
	"reflect"
	"testing"
	"time"
)

const ms = time.Millisecond

// twoWorkerDAG is the canonical hand-built epoch: worker 0 computes forward
// for 3ms and sends; worker 1 computes 2ms of forward, blocks on the message
// until 5ms, then runs backward to the 10ms wall.
func twoWorkerDAG() (time.Duration, [][]IntervalEvent, [][]MatchEvent) {
	intervals := [][]IntervalEvent{
		{{Worker: 0, Stage: StageForward, Layer: 0, Start: 0, End: 3 * ms}},
		{{Worker: 1, Stage: StageForward, Layer: 0, Start: 0, End: 2 * ms},
			{Worker: 1, Stage: StageBackward, Layer: 1, Start: 5 * ms, End: 10 * ms}},
	}
	matches := [][]MatchEvent{
		nil,
		{{Worker: 1, From: 0, Kind: "rep", Layer: 1,
			Sent: 3 * ms, WaitStart: 2 * ms, WaitEnd: 5 * ms}},
	}
	return 10 * ms, intervals, matches
}

func TestCritPathTwoWorkerChain(t *testing.T) {
	wall, intervals, matches := twoWorkerDAG()
	p := extractCritPath(wall, intervals, matches)

	if p.CoveredSeconds != p.WallSeconds {
		t.Fatalf("coverage identity broken: covered %v, wall %v", p.CoveredSeconds, p.WallSeconds)
	}
	want := []CritSpan{
		{Kind: "compute", Worker: 0, Stage: "forward", Layer: 0,
			StartSeconds: 0, EndSeconds: 0.003},
		{Kind: "net", Worker: 1, From: 0, MsgKind: "rep", Layer: 1,
			StartSeconds: 0.003, EndSeconds: 0.005},
		{Kind: "compute", Worker: 1, Stage: "backward", Layer: 1,
			StartSeconds: 0.005, EndSeconds: 0.010},
	}
	if !reflect.DeepEqual(p.Spans, want) {
		t.Fatalf("spans:\n got %+v\nwant %+v", p.Spans, want)
	}

	bd := p.Breakdown()
	for label, sec := range map[string]float64{
		"compute:forward": 0.003, "net:rep": 0.002, "compute:backward": 0.005,
	} {
		if math.Abs(bd[label]-sec) > 1e-12 {
			t.Fatalf("breakdown[%s] = %v, want %v (all: %v)", label, bd[label], sec, bd)
		}
	}
	if label, share := p.Dominant(); label != "compute:backward" || math.Abs(share-0.5) > 1e-12 {
		t.Fatalf("dominant = %s %.3f, want compute:backward 0.500", label, share)
	}
}

// TestCritPathDeterministic pins the acceptance criterion that identical
// inputs yield an identical path structure, including when the input slices
// arrive in a different (unsorted) order.
func TestCritPathDeterministic(t *testing.T) {
	wall, intervals, matches := twoWorkerDAG()
	first := extractCritPath(wall, intervals, matches)
	// Shuffle worker 1's intervals: the extractor sorts, so order must not
	// matter.
	_, intervals2, matches2 := twoWorkerDAG()
	intervals2[1][0], intervals2[1][1] = intervals2[1][1], intervals2[1][0]
	second := extractCritPath(wall, intervals2, matches2)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("extraction not deterministic:\n %+v\n vs %+v", first, second)
	}
}

// TestCritPathAttributesSlowWorker: when one worker's long compute delays a
// message everyone else waits on, the path must charge the bulk of the epoch
// to that worker — this is the attribution the straggler report relies on.
func TestCritPathAttributesSlowWorker(t *testing.T) {
	wall := 20 * ms
	intervals := [][]IntervalEvent{
		{{Worker: 0, Stage: StageForward, Start: 0, End: 1 * ms},
			{Worker: 0, Stage: StageBackward, Start: 18 * ms, End: 20 * ms}},
		{{Worker: 1, Stage: StageForward, Start: 0, End: 2 * ms},
			{Worker: 1, Stage: StageBarrier, Start: 2 * ms, End: 20 * ms}},
		{{Worker: 2, Stage: StageForward, Start: 0, End: 15 * ms}},
	}
	matches := [][]MatchEvent{
		{{Worker: 0, From: 2, Kind: "rep", Layer: 1,
			Sent: 15 * ms, WaitStart: 1 * ms, WaitEnd: 18 * ms}},
		nil, nil,
	}
	p := extractCritPath(wall, intervals, matches)
	if p.CoveredSeconds != p.WallSeconds {
		t.Fatalf("coverage identity broken: %+v", p)
	}
	// Seconds by the worker each span charges (net spans charge the
	// receiver, whose progress the message bounded).
	ws := map[int]float64{}
	for _, s := range p.Spans {
		ws[s.Worker] += s.Seconds()
	}
	if ws[2] <= ws[0] || ws[2] <= ws[1] {
		t.Fatalf("slow worker 2 not dominant on the path: %v", ws)
	}
	if math.Abs(ws[2]-0.015) > 1e-12 {
		t.Fatalf("worker 2 attributed %v, want 0.015", ws[2])
	}
	if label, _ := p.Dominant(); label != "compute:forward" {
		t.Fatalf("dominant = %s, want compute:forward (the slow worker's stage)", label)
	}
}

// TestCritPathIgnoresNonBindingWaits: a wait that found its message already
// pending (sub-eps block) is not a causal dependency and must not divert the
// walk to the sender.
func TestCritPathIgnoresNonBindingWaits(t *testing.T) {
	wall := 10 * ms
	intervals := [][]IntervalEvent{
		{{Worker: 0, Stage: StageForward, Start: 0, End: 4 * ms}},
		{{Worker: 1, Stage: StageBackward, Start: 0, End: 10 * ms}},
	}
	matches := [][]MatchEvent{
		nil,
		{{Worker: 1, From: 0, Kind: "rep",
			Sent: 2 * ms, WaitStart: 6 * ms, WaitEnd: 6*ms + 5*time.Microsecond}},
	}
	p := extractCritPath(wall, intervals, matches)
	if len(p.Spans) != 1 {
		t.Fatalf("non-binding wait diverted the walk: %+v", p.Spans)
	}
	s := p.Spans[0]
	if s.Kind != "compute" || s.Worker != 1 || s.Stage != "backward" ||
		s.StartSeconds != 0 || s.EndSeconds != 0.010 {
		t.Fatalf("span = %+v, want worker 1 backward covering the epoch", s)
	}
}

// TestCritPathBarrierNeverAnchors: barrier idling is the consequence of the
// critical chain, so a barrier interval reaching the wall must not make its
// worker the anchor.
func TestCritPathBarrierNeverAnchors(t *testing.T) {
	wall := 10 * ms
	intervals := [][]IntervalEvent{
		{{Worker: 0, Stage: StageBackward, Start: 0, End: 8 * ms}},
		{{Worker: 1, Stage: StageForward, Start: 0, End: 6 * ms},
			{Worker: 1, Stage: StageBarrier, Start: 6 * ms, End: 10 * ms}},
	}
	p := extractCritPath(wall, intervals, [][]MatchEvent{nil, nil})
	if len(p.Spans) != 1 || p.Spans[0].Worker != 0 {
		t.Fatalf("anchor fell on the barrier worker: %+v", p.Spans)
	}
	// Worker 0's recorded activity ends at 8ms; the trailing 2ms to the wall
	// extends its last stage so the identity still holds.
	if p.CoveredSeconds != p.WallSeconds || p.Spans[0].EndSeconds != 0.010 {
		t.Fatalf("trailing gap not absorbed: %+v", p)
	}
}

// TestCritPathGapsAndFallback: time before a worker's first interval is
// charged to that interval's stage; a window with no intervals at all becomes
// a single "unattributed" span. Both preserve the coverage identity.
func TestCritPathGapsAndFallback(t *testing.T) {
	wall := 10 * ms
	p := extractCritPath(wall,
		[][]IntervalEvent{{{Worker: 0, Stage: StageForward, Start: 2 * ms, End: 10 * ms}}},
		[][]MatchEvent{nil})
	if len(p.Spans) != 1 || p.Spans[0].Stage != "forward" ||
		p.Spans[0].StartSeconds != 0 || p.CoveredSeconds != p.WallSeconds {
		t.Fatalf("leading gap not charged to the following stage: %+v", p)
	}

	p = extractCritPath(wall, [][]IntervalEvent{nil}, [][]MatchEvent{nil})
	if len(p.Spans) != 1 || p.Spans[0].Stage != "unattributed" ||
		p.CoveredSeconds != p.WallSeconds {
		t.Fatalf("empty window did not fall back to unattributed: %+v", p)
	}
}

func TestCritPathDegenerateInputs(t *testing.T) {
	if p := extractCritPath(0, nil, nil); len(p.Spans) != 0 || p.CoveredSeconds != 0 {
		t.Fatalf("zero wall: %+v", p)
	}
	if p := extractCritPath(-time.Second, [][]IntervalEvent{nil}, nil); len(p.Spans) != 0 {
		t.Fatalf("negative wall: %+v", p)
	}
	var nilPath *CritPath
	if nilPath.Breakdown() != nil {
		t.Fatal("nil path aggregations must be nil")
	}
	if label, share := nilPath.Dominant(); label != "" || share != 0 {
		t.Fatal("nil path dominant must be empty")
	}
}

// TestCritPathMergesSameLabelRuns: consecutive intervals of one (stage,
// layer) are one compute span — a different layer in between splits the
// run — and the path is stored at exact length.
func TestCritPathMergesSameLabelRuns(t *testing.T) {
	iv := func(s Stage, layer int, start, end time.Duration) IntervalEvent {
		return IntervalEvent{Stage: s, Layer: layer, Start: start, End: end}
	}
	p := extractCritPath(4*ms, [][]IntervalEvent{{
		iv(StageForward, 1, 0, 1*ms), iv(StageForward, 1, 1*ms, 2*ms),
		iv(StageForward, 2, 2*ms, 3*ms), iv(StageForward, 1, 3*ms, 4*ms),
	}}, [][]MatchEvent{nil})
	want := []CritSpan{
		{Kind: "compute", Stage: "forward", Layer: 1, StartSeconds: 0, EndSeconds: 0.002},
		{Kind: "compute", Stage: "forward", Layer: 2, StartSeconds: 0.002, EndSeconds: 0.003},
		{Kind: "compute", Stage: "forward", Layer: 1, StartSeconds: 0.003, EndSeconds: 0.004},
	}
	if !reflect.DeepEqual(p.Spans, want) || cap(p.Spans) != len(want) {
		t.Fatalf("spans (cap %d):\n got %+v\nwant %+v", cap(p.Spans), p.Spans, want)
	}
}

// TestFlowsNumberedPerRecorder: EndEpoch draws one arrow per stamped match,
// numbered by one counter over the recorder's life, so no two epochs share
// an arrow id; an unstamped match draws none.
func TestFlowsNumberedPerRecorder(t *testing.T) {
	rec, tr := NewFlightRecorder(), NewTracer()
	for epoch := 1; epoch <= 2; epoch++ {
		rec.BeginEpoch(epoch, 2, 1)
		sc := rec.Clock(1, tr)
		sent, ok := rec.SendStamp()
		if !ok {
			t.Fatal("no send stamp inside an open epoch")
		}
		now := time.Now()
		rec.OnWaitMatch(1, 0, "rep", 1, 0, sent, now, now.Add(time.Millisecond))
		rec.OnWaitMatch(1, 0, "rep", 1, 1, 0, now, now)
		sc.End()
		rec.EndEpoch(2*time.Millisecond, 0)
	}
	if _, ok := rec.SendStamp(); ok {
		t.Fatal("a send stamp outside an epoch")
	}
	flows := tr.Flows()
	if len(flows) != 2 || flows[0].ID != 1 || flows[1].ID != 2 {
		t.Fatalf("flows %+v, want ids 1 and 2", flows)
	}
}
