package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// The epoch flight recorder attributes every nanosecond of an epoch's wall
// time, and every byte that crosses the fabric, to a fixed stage taxonomy —
// per worker, per layer, per epoch. It is the measurement substrate for the
// paper's §6 evaluation style breakdowns (computation vs. communication time
// and traffic volume) and for the cost-model validator: Eq. 1–3 predict
// seconds per stage, and the recorder supplies the measured counterpart.
//
// Design constraints, in order:
//
//  1. Correctness of the accounting identity. Per worker, the stage times of
//     one epoch partition the worker's wall time with no gaps: StageClock is
//     an exclusive state machine that attributes elapsed-since-last-boundary
//     to the interval being left, so the per-worker sum equals the worker's
//     span by construction, not by hoping every interval was wrapped.
//  2. One store of time. The clock hands each closed interval to the
//     worker's log and to the span tracer from the same two clock reads;
//     the cells, the barrier and the critical path are computed from the log
//     at EndEpoch, so no two views can disagree (DESIGN.md §9).
//  3. Low overhead. One clock per worker goroutine (no maps on the hot path
//     — a boundary is one monotonic clock read and one append under the
//     worker's uncontended mutex, into a log kept across epochs); byte
//     attribution is one atomic add per message.
//  4. Nil safety. A nil *FlightRecorder and a nil *StageClock are no-ops that
//     allocate nothing, so instrumented paths cost nothing when recording is
//     off.

// Stage is one slot of the fixed attribution taxonomy.
type Stage uint8

// The stage taxonomy. Time and traffic cells are indexed (worker, stage,
// layer); stages without a meaningful layer use layer cell 0.
const (
	// StageForward is forward-pass compute (vertex/edge kernels, tape
	// bookkeeping, pre-transforms).
	StageForward Stage = iota
	// StageBackward is backward-pass compute (tape backward, loss, seed
	// assembly, gradient collection).
	StageBackward
	// StageDepFetchSend is time spent packing/sending master rows and waiting
	// for sends to drain (GetFromDepNbr, sender side).
	StageDepFetchSend
	// StageDepFetchRecv is time blocked on arriving dependency rows and
	// unpacking them (GetFromDepNbr, receiver side).
	StageDepFetchRecv
	// StageMirrorScatter covers mirror-gradient exchange in the backward pass
	// (PostToDepNbr), both posting and waiting.
	StageMirrorScatter
	// StageGradSync is parameter-gradient synchronisation: the all-reduce or
	// the parameter-server exchange, plus the optimiser step.
	StageGradSync
	// StageBarrier is the per-worker idle tail between a worker's own finish
	// and the slowest worker's finish — the epoch-synchronous straggler cost.
	StageBarrier
	// StageCheckpoint is snapshot serialisation at the epoch barrier. It is
	// recorded outside the epoch wall time (EpochStats.Duration excludes the
	// save), so it is excluded from the wall-coverage identity.
	StageCheckpoint
	// NumStages bounds the taxonomy.
	NumStages
)

var stageNames = [NumStages]string{
	"forward", "backward", "dep_fetch_send", "dep_fetch_recv",
	"mirror_scatter", "grad_sync", "barrier", "checkpoint",
}

// String returns the stage's stable snake_case name, used in JSON documents
// and read by name in benchmark/ (StageSeconds("dep_fetch_recv") behind
// engine.dep_fetch_recv_share): renaming one silently zeroes that metric.
func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageNames returns the taxonomy in stage order.
func StageNames() []string {
	out := make([]string, NumStages)
	copy(out, stageNames[:])
	return out
}

// Class is the one stage→busy-class table: compute for forward and backward,
// communication for the four exchange stages, ClassNone (not busy) for
// barrier and checkpoint. The clock's tracer sink classes each span with it
// and the facade's /status shares sum cells by it, so utilisation (Fig. 13)
// and stage attribution cannot disagree on what counts as compute.
func (s Stage) Class() int {
	switch s {
	case StageForward, StageBackward:
		return ClassCompute
	case StageDepFetchSend, StageDepFetchRecv, StageMirrorScatter, StageGradSync:
		return ClassComm
	}
	return ClassNone
}

// stageCell is one (worker, stage, layer) traffic accumulator. Fabric
// goroutines add to it; its time is summed from the worker's log at EndEpoch.
type stageCell struct {
	bytes atomic.Int64
	msgs  atomic.Int64
}

// epochAccum is the live accumulator of one open epoch.
type epochAccum struct {
	epoch   int
	workers int
	layers  int
	cells   []stageCell // workers × NumStages × (layers+1)
	// start anchors every logged offset.
	start time.Time
	// logs is the epoch's one store of time, one log per worker.
	logs []workerLog
	// checkpoint is the snapshot save's time, charged to worker 0.
	checkpoint atomic.Int64
	// tracer is the span tracer the epoch's clocks feed, if any; EndEpoch
	// draws the matched waits on it as flow arrows.
	tracer atomic.Pointer[Tracer]
}

// workerLog is one worker's time for one epoch: its clock's closed intervals
// and its matched waits. Both are appended from the worker's own goroutine,
// so each is in time order by construction; the mutex makes the log safe
// against a reader regardless.
type workerLog struct {
	mu        sync.Mutex
	intervals []IntervalEvent
	matches   []MatchEvent
}

// IntervalEvent is one closed StageClock interval of one worker: the compute
// nodes of the epoch's event DAG. Offsets are relative to the epoch start.
type IntervalEvent struct {
	Worker int
	Stage  Stage
	Layer  int
	Start  time.Duration
	End    time.Duration
}

// MatchEvent is one matched cross-worker message wait: the edges of the
// epoch's event DAG. Worker blocked on the message from Sent (the sender's
// stamped send time; equal to WaitStart when Stamped is false) until
// WaitEnd; a wait that found the message already pending has
// WaitEnd ≈ WaitStart. Offsets are relative to the epoch start.
type MatchEvent struct {
	Worker    int
	From      int
	Kind      string
	Layer     int
	Seq       int
	Stamped   bool
	Sent      time.Duration
	WaitStart time.Duration
	WaitEnd   time.Duration
}

// index returns the flat cell index of (worker, s, layer), clamping the
// layer into range; -1 for an out-of-range worker or stage.
func (a *epochAccum) index(worker int, s Stage, layer int) int {
	if worker < 0 || worker >= a.workers || s >= NumStages {
		return -1
	}
	layer = min(max(layer, 0), a.layers)
	return (worker*int(NumStages)+int(s))*(a.layers+1) + layer
}

// StageCell is one non-empty attribution cell of a finished epoch.
type StageCell struct {
	Worker  int     `json:"worker"`
	Stage   string  `json:"stage"`
	Layer   int     `json:"layer"`
	Seconds float64 `json:"seconds"`
	Bytes   int64   `json:"bytes,omitempty"`
	Msgs    int64   `json:"msgs,omitempty"`
}

// EpochRecord is the immutable flight record of one completed epoch. Cells
// holds only non-empty (worker, stage, layer) slots.
type EpochRecord struct {
	Epoch       int         `json:"epoch"`
	WallSeconds float64     `json:"wall_seconds"`
	Loss        float64     `json:"loss"`
	Workers     int         `json:"workers"`
	Layers      int         `json:"layers"`
	Cells       []StageCell `json:"cells"`
	// StragglerIndex is max/mean of per-worker busy seconds (all stages
	// except barrier and checkpoint): 1.0 means perfect balance, 2.0 means
	// the slowest worker did twice the mean work. Zero when unmeasurable.
	StragglerIndex float64 `json:"straggler_index,omitempty"`
	// BarrierShare is the fraction of the cluster's total wall time
	// (workers × wall) spent idling at the epoch barrier — the cost of skew.
	BarrierShare float64 `json:"barrier_share,omitempty"`
	// SlowestWorker is the worker with the most busy seconds this epoch.
	SlowestWorker int `json:"slowest_worker"`
	// CritPath is the epoch's critical path.
	CritPath *CritPath `json:"crit_path,omitempty"`
}

// StageSeconds sums the stage's time across all workers and layers.
func (r *EpochRecord) StageSeconds(stage string) float64 {
	var s float64
	for _, c := range r.Cells {
		if c.Stage == stage {
			s += c.Seconds
		}
	}
	return s
}

// LayerStageSeconds sums the stage's time at one layer across workers.
func (r *EpochRecord) LayerStageSeconds(stage string, layer int) float64 {
	var s float64
	for _, c := range r.Cells {
		if c.Stage == stage && c.Layer == layer {
			s += c.Seconds
		}
	}
	return s
}

// StageBytes sums the stage's traffic across all workers and layers.
func (r *EpochRecord) StageBytes(stage string) int64 {
	var b int64
	for _, c := range r.Cells {
		if c.Stage == stage {
			b += c.Bytes
		}
	}
	return b
}

// StageMsgs sums the stage's message count across workers and layers.
func (r *EpochRecord) StageMsgs(stage string) int64 {
	var n int64
	for _, c := range r.Cells {
		if c.Stage == stage {
			n += c.Msgs
		}
	}
	return n
}

// TotalBytes sums traffic across every cell. Each logical message is counted
// once on the sender and once on the receiver, so clean-fabric runs report
// exactly 2× the logical wire volume here.
func (r *EpochRecord) TotalBytes() int64 {
	var b int64
	for _, c := range r.Cells {
		b += c.Bytes
	}
	return b
}

// recorderKeep bounds the retained epoch history; beyond it the oldest
// records are dropped (long nstrain runs must not grow without bound).
const recorderKeep = 4096

// FlightRecorder collects per-epoch stage attribution. One recorder serves
// one engine; BeginEpoch/EndEpoch bracket each epoch, worker goroutines log
// time through StageClock and waits through OnWaitMatch, and any goroutine
// adds bytes through AddTraffic. All methods are safe for concurrent use and
// no-ops on a nil receiver.
type FlightRecorder struct {
	cur atomic.Pointer[epochAccum]

	// logs are the per-worker logs, kept across epochs and truncated at
	// BeginEpoch, so that a steady-state boundary appends without allocating.
	// Only BeginEpoch touches the slice itself.
	logs []workerLog
	// flows numbers the flow arrows drawn over the recorder's life.
	flows atomic.Uint64

	mu   sync.Mutex
	recs []EpochRecord
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{}
}

// EnableCausal does nothing: every recorder logs intervals and matched waits
// and extracts each epoch's critical path. It remains for callers written
// when that was a mode.
func (r *FlightRecorder) EnableCausal() {}

// BeginEpoch opens the accumulator for one epoch over the given cluster
// shape. An already-open epoch is discarded (protocol misuse, not fatal).
// Every clock of the previous epoch must have ended: its worker's log is
// reused from here on.
func (r *FlightRecorder) BeginEpoch(epoch, workers, layers int) {
	if r == nil || workers <= 0 || layers < 0 {
		return
	}
	if len(r.logs) != workers {
		r.logs = make([]workerLog, workers)
	}
	for w := range r.logs {
		l := &r.logs[w]
		l.mu.Lock()
		l.intervals, l.matches = l.intervals[:0], l.matches[:0]
		l.mu.Unlock()
	}
	r.cur.Store(&epochAccum{
		epoch: epoch, workers: workers, layers: layers,
		cells: make([]stageCell, workers*int(NumStages)*(layers+1)),
		start: time.Now(), logs: r.logs,
	})
}

// OnWaitMatch logs one matched message wait of the open epoch: worker
// matched the message (kind, layer, seq) from peer from, having blocked from
// waitStart to waitEnd; sentUnixNano is the message's send stamp (zero when
// it was sent outside an epoch). Call it from worker's own goroutine. A
// no-op when the recorder is nil or no epoch is open.
func (r *FlightRecorder) OnWaitMatch(worker, from int, kind string, layer, seq int,
	sentUnixNano int64, waitStart, waitEnd time.Time) {
	if r == nil {
		return
	}
	a := r.cur.Load()
	if a == nil || worker < 0 || worker >= a.workers {
		return
	}
	m := MatchEvent{
		Worker: worker, From: from, Kind: kind, Layer: layer, Seq: seq,
		Stamped:   sentUnixNano > 0,
		WaitStart: waitStart.Sub(a.start),
		WaitEnd:   waitEnd.Sub(a.start),
	}
	if m.Stamped {
		// The stamp is a wall-clock reading and the offsets are monotonic:
		// anchor it on the wait's end, read on both clocks, so that only the
		// wall clock's drift over the flight itself can move it, and never
		// past the wait's end.
		m.Sent = m.WaitEnd - max(time.Duration(waitEnd.UnixNano()-sentUnixNano), 0)
	} else {
		// Unstamped message: the visible blocking interval is all we know.
		m.Sent = m.WaitStart
	}
	l := &a.logs[worker]
	l.mu.Lock()
	l.matches = append(l.matches, m)
	l.mu.Unlock()
}

// SendStamp returns the wall-clock stamp of one message send. ok is false —
// and the stamp zero — when no epoch is open; the message then goes
// unstamped.
func (r *FlightRecorder) SendStamp() (sentUnixNano int64, ok bool) {
	if r == nil || r.cur.Load() == nil {
		return 0, false
	}
	return time.Now().UnixNano(), true
}

// drawFlows writes every stamped cross-worker wait-match of the epoch onto tr
// as a flow event, so the Chrome trace draws a send→receive arrow for each
// message a worker waited on. The offsets are anchored at the epoch start;
// the tracer's clock is the one the epoch's spans are on.
func (r *FlightRecorder) drawFlows(tr *Tracer, a *epochAccum, matches [][]MatchEvent) {
	base := tr.offset(a.start)
	for _, ms := range matches {
		for _, m := range ms {
			if !m.Stamped {
				continue
			}
			tr.AddFlow(FlowEvent{
				ID: r.flows.Add(1), Name: "msg:" + m.Kind,
				FromWorker: m.From, At: base + m.Sent,
				ToWorker: m.Worker, End: base + m.WaitEnd,
			})
		}
	}
}

// EndEpoch closes the open epoch into an immutable record. Every time it
// reports is a view of the workers' logs: the cells sum the intervals, a
// worker's barrier is wall minus its intervals (they tile its clock's life),
// and the critical path walks the intervals and matched waits. Attribution
// arriving after the swap (e.g. a late duplicate delivery) is dropped —
// exactly-once counting is decided at the dedup point, not here.
func (r *FlightRecorder) EndEpoch(wall time.Duration, loss float64) {
	if r == nil {
		return
	}
	a := r.cur.Swap(nil)
	if a == nil {
		return
	}
	rec := EpochRecord{
		Epoch: a.epoch, WallSeconds: wall.Seconds(), Loss: loss,
		Workers: a.workers, Layers: a.layers,
	}
	nanos := make([]int64, len(a.cells))
	intervals := make([][]IntervalEvent, a.workers)
	matches := make([][]MatchEvent, a.workers)
	for w := range a.logs {
		l := &a.logs[w]
		l.mu.Lock()
		intervals[w], matches[w] = l.intervals, l.matches
		l.mu.Unlock()
		var span time.Duration
		for _, iv := range intervals[w] {
			span += iv.End - iv.Start
			if i := a.index(w, iv.Stage, iv.Layer); i >= 0 {
				nanos[i] += int64(iv.End - iv.Start)
			}
		}
		// A worker that finished early idled until the slowest one crossed
		// the barrier (spawn skew makes this approximate, never negative).
		if gap := wall - span; gap > 0 {
			nanos[a.index(w, StageBarrier, 0)] += int64(gap)
		}
	}
	nanos[a.index(0, StageCheckpoint, 0)] += a.checkpoint.Load()

	busy := make([]float64, a.workers)
	var barrier float64
	for w := 0; w < a.workers; w++ {
		for s := Stage(0); s < NumStages; s++ {
			for l := 0; l <= a.layers; l++ {
				i := a.index(w, s, l)
				bytes, msgs := a.cells[i].bytes.Load(), a.cells[i].msgs.Load()
				if nanos[i] == 0 && bytes == 0 && msgs == 0 {
					continue
				}
				sec := float64(nanos[i]) / 1e9
				switch s {
				case StageBarrier:
					barrier += sec
				case StageCheckpoint:
					// Outside the epoch wall; neither busy nor barrier.
				default:
					busy[w] += sec
				}
				rec.Cells = append(rec.Cells, StageCell{
					Worker: w, Stage: s.String(), Layer: l,
					Seconds: sec, Bytes: bytes, Msgs: msgs,
				})
			}
		}
	}
	var sum, max float64
	for w, b := range busy {
		sum += b
		if b > max {
			max = b
			rec.SlowestWorker = w
		}
	}
	if mean := sum / float64(a.workers); mean > 0 {
		rec.StragglerIndex = max / mean
	}
	if total := float64(a.workers) * wall.Seconds(); total > 0 {
		rec.BarrierShare = barrier / total
	}
	if tr := a.tracer.Load(); tr != nil {
		r.drawFlows(tr, a, matches)
	}
	rec.CritPath = extractCritPath(wall, intervals, matches)
	r.mu.Lock()
	if len(r.recs) >= recorderKeep {
		copy(r.recs, r.recs[1:])
		r.recs = r.recs[:len(r.recs)-1]
	}
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// AddTraffic attributes bytes and message counts to a stage cell of the open
// epoch. A no-op when no epoch is open — time attribution has the same
// property via Clock.
func (r *FlightRecorder) AddTraffic(worker int, s Stage, layer int, bytes, msgs int64) {
	if r == nil {
		return
	}
	a := r.cur.Load()
	if a == nil {
		return
	}
	if i := a.index(worker, s, layer); i >= 0 {
		a.cells[i].bytes.Add(bytes)
		a.cells[i].msgs.Add(msgs)
	}
}

// AddCheckpoint charges the open epoch's snapshot save, the one interval no
// worker's StageClock runs in, to worker 0's checkpoint cell. Non-positive
// durations are dropped.
func (r *FlightRecorder) AddCheckpoint(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	if a := r.cur.Load(); a != nil {
		a.checkpoint.Add(int64(d))
	}
}

// Clock starts worker's clock, initially in StageForward at layer 1. Inside
// an open epoch it logs into the worker's log; a non-nil tr adds the tracer,
// and alone (nil recorder, or no open epoch) makes the clock trace-only.
// With no sink at all it returns nil, the no-op clock. The clock must be
// used from the worker's goroutine and ended before the epoch does.
func (r *FlightRecorder) Clock(worker int, tr *Tracer) *StageClock {
	var acc *epochAccum
	if r != nil {
		if a := r.cur.Load(); a != nil && worker >= 0 && worker < a.workers {
			acc = a
		}
	}
	if acc == nil && tr == nil {
		return nil
	}
	now := time.Now()
	c := &StageClock{acc: acc, tr: tr, worker: worker, begun: now, stage: StageForward, layer: 1}
	c.cur.open("epoch_setup", now, nil)
	if tr != nil {
		tr.offset(now) // the tracer's clock starts no later than this one
	}
	if acc != nil {
		acc.tracer.Store(tr)
	}
	return c
}

// Snapshot returns a copy of every completed epoch record, oldest first.
func (r *FlightRecorder) Snapshot() []EpochRecord { return r.Tail(recorderKeep) }

// Tail returns a copy of the newest n completed epoch records (all of them
// when fewer), oldest first.
func (r *FlightRecorder) Tail(n int) []EpochRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EpochRecord, min(max(n, 0), len(r.recs)))
	copy(out, r.recs[len(r.recs)-len(out):])
	return out
}

// maxPhaseAttrs bounds the attributes one interval or group carries (the
// widest today is recv_chunk: layer, peer, rows, bytes); more are dropped.
const maxPhaseAttrs = 4

// StageClock is one worker's clock, the single emission point of the
// training path's timing. At any instant the worker is inside exactly one
// interval — a (stage, layer) with a span name and attributes — and Phase
// closes it with one clock read and hands it, once, to each attached sink:
// the worker's log (an IntervalEvent, the recorder's one store of time) and
// the tracer (a span classed by Stage.Class). The intervals tile the clock's
// life, so the stage sum equals the span End reports exactly — there is no
// "untracked" bucket to hide time in; time between two kernels belongs to
// the interval the earlier one opened. Not safe for concurrent use; nil is a
// no-op that allocates nothing.
type StageClock struct {
	acc    *epochAccum // the worker's log; nil on a trace-only lane
	tr     *Tracer     // span sink; nil when none is attached
	worker int
	begun  time.Time // the clock's own start

	// The running interval; an empty name marks a lane that has not entered
	// its first phase (nothing to emit).
	stage Stage
	layer int
	cur   clockSpan

	// groups are the open structural spans, innermost last; the closing
	// innermost ones end at the next boundary.
	groups  [3]clockSpan // epoch → layer | backward is depth 2
	ngroups int
	closing int
}

// clockSpan is what a StageClock holds of a span still open: the running
// interval or a group. Attributes are held by value so that no caller's
// argument list is ever retained.
type clockSpan struct {
	name   string
	attrs  [maxPhaseAttrs]Attr
	nattrs int
	start  time.Time
}

// open starts the span at the given instant.
func (sp *clockSpan) open(name string, start time.Time, attrs []Attr) {
	sp.name, sp.start = name, start
	sp.nattrs = copy(sp.attrs[:], attrs)
}

// Phase closes the running interval and enters (s, layer) under the given
// span name and attributes.
func (c *StageClock) Phase(s Stage, layer int, name string, attrs ...Attr) {
	if c == nil {
		return
	}
	now := time.Now()
	c.boundary(now)
	c.stage, c.layer = s, layer
	c.cur.open(name, now, attrs)
}

// SetAttrs adds attributes to the running interval — for values only known
// once it is under way, such as bytes received.
func (c *StageClock) SetAttrs(attrs ...Attr) {
	if c == nil {
		return
	}
	c.cur.nattrs += copy(c.cur.attrs[c.cur.nattrs:], attrs)
}

// boundary hands the running interval, ending now, to the worker's log and
// the tracer, and ends the groups that were waiting for a boundary.
func (c *StageClock) boundary(now time.Time) {
	if a := c.acc; a != nil {
		if start, end := c.cur.start.Sub(a.start), now.Sub(a.start); end > start {
			l := &a.logs[c.worker]
			l.mu.Lock()
			l.intervals = append(l.intervals, IntervalEvent{
				Worker: c.worker, Stage: c.stage, Layer: c.layer,
				Start: start, End: end,
			})
			l.mu.Unlock()
		}
	}
	if c.tr == nil {
		return
	}
	if c.cur.name != "" {
		c.emit(&c.cur, c.stage.Class(), now)
	}
	for ; c.closing > 0; c.closing-- {
		c.ngroups--
		c.emit(&c.groups[c.ngroups], ClassNone, now)
	}
}

// emit records sp, ending now, on the tracer.
func (c *StageClock) emit(sp *clockSpan, class int, now time.Time) {
	c.tr.Add(SpanData{
		Worker: c.worker, Class: class, Name: sp.name,
		Start: c.tr.offset(sp.start), End: c.tr.offset(now),
		Attrs: append([]Attr(nil), sp.attrs[:sp.nattrs]...),
	})
}

// Group opens a structural span (an epoch, a layer) on the tracer: it
// organises the intervals in the trace without counting as busy time. It
// starts with the running interval — call it right after the Phase that
// begins the group — and EndGroup ends it.
func (c *StageClock) Group(name string, attrs ...Attr) {
	if c == nil || c.tr == nil || c.ngroups == len(c.groups) {
		return
	}
	c.groups[c.ngroups].open(name, c.cur.start, attrs)
	c.ngroups++
}

// EndGroup ends the innermost open group at the next boundary, so that a
// group and the last interval inside it end at the same instant.
func (c *StageClock) EndGroup() {
	if c != nil && c.closing < c.ngroups {
		c.closing++
	}
}

// Lane returns a trace-only clock for the same worker, nil when no tracer is
// attached: it feeds the tracer and never the worker's log. Work
// beside the worker's own timeline (the overlap path's background sender) is
// timed on a lane, so the exclusive per-worker identity survives while
// utilisation still sees the work. A lane is a clock of its own: one
// goroutine, ended with End.
func (c *StageClock) Lane() *StageClock {
	if c == nil || c.tr == nil {
		return nil
	}
	return &StageClock{tr: c.tr, worker: c.worker, begun: time.Now()}
}

// End closes the final interval and every group still open, detaches the
// clock and returns the span it ran for: what the worker was busy, and to
// the nanosecond what its intervals sum to.
func (c *StageClock) End() time.Duration {
	if c == nil || (c.acc == nil && c.tr == nil) {
		return 0
	}
	now := time.Now()
	c.closing = c.ngroups
	c.boundary(now)
	c.acc, c.tr = nil, nil
	return now.Sub(c.begun)
}
