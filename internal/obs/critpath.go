package obs

import (
	"cmp"
	"slices"
	"time"
)

// Critical-path extraction over one epoch's event DAG.
//
// The DAG has two node kinds, both read from the workers' logs:
//
//   - compute nodes: the closed StageClock intervals of each worker
//     (IntervalEvent) — at any instant each worker is in exactly one;
//   - message edges: matched cross-worker waits (MatchEvent) — worker W
//     blocked from WaitStart to WaitEnd on a message that worker F stamped
//     at Sent.
//
// The extractor walks backward from the epoch's end: starting on the worker
// whose recorded activity finished last, it attributes time to that worker's
// stage intervals until it hits a *binding* wait (one that actually blocked,
// not a match that found the message already pending), emits a net span
// [Sent, WaitEnd] for the message, and jumps to the sending worker at Sent.
// The walk telescopes — compute blocks cover [WaitEnd, t], the net span
// covers [Sent, WaitEnd], and the walk resumes at Sent — so the emitted
// spans partition the epoch exactly and CoveredSeconds equals WallSeconds
// by construction. The result is the single causal chain that bounded the
// epoch: shortening anything on it shortens the epoch; nothing off it can.

// bindingWaitEps separates waits that actually blocked the receiver from
// matches that found the message already pending (WaitEnd ≈ WaitStart).
// Sub-20µs "waits" are channel-handoff noise, not causal dependencies.
const bindingWaitEps = 20 * time.Microsecond

// critPathMaxSpans bounds the walk against pathological event logs; when the
// cap is hit the remaining time is closed out as one compute span so the
// coverage identity still holds.
const critPathMaxSpans = 512

// CritSpan is one span of an epoch's critical path. Kind is "compute" (the
// worker was executing Stage at Layer: a maximal run of intervals with that
// label) or "net" (the worker was bound by a MsgKind message in flight from
// worker From). Times are seconds relative to the epoch start.
type CritSpan struct {
	Kind   string `json:"kind"`
	Worker int    `json:"worker"`
	// Stage is set on compute spans; "unattributed" marks time no stage
	// interval covered (clock not yet started, or log truncation).
	Stage string `json:"stage,omitempty"`
	Layer int    `json:"layer"`
	// From and MsgKind are meaningful only on net spans.
	From         int     `json:"from"`
	MsgKind      string  `json:"msg_kind,omitempty"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
}

// Seconds returns the span's duration.
func (s CritSpan) Seconds() float64 { return s.EndSeconds - s.StartSeconds }

// Label returns the span's aggregation key: "compute:<stage>" or
// "net:<msg kind>".
func (s CritSpan) Label() string {
	if s.Kind == "net" {
		return "net:" + s.MsgKind
	}
	return "compute:" + s.Stage
}

// CritPath is the extracted critical path of one epoch: a chronological
// chain of spans that partitions [0, WallSeconds]. CoveredSeconds is the sum
// of span durations and equals WallSeconds up to clock-read jitter.
type CritPath struct {
	WallSeconds    float64    `json:"wall_seconds"`
	CoveredSeconds float64    `json:"covered_seconds"`
	Spans          []CritSpan `json:"spans"`
}

// Breakdown aggregates span seconds by Label — the input for "why was this
// epoch slow" reporting and for watchdog/bench gating.
func (p *CritPath) Breakdown() map[string]float64 {
	if p == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, s := range p.Spans {
		out[s.Label()] += s.Seconds()
	}
	return out
}

// Dominant returns the Label with the most attributed seconds, with its
// share of the covered time. Empty when the path has no spans.
func (p *CritPath) Dominant() (label string, share float64) {
	if p == nil || p.CoveredSeconds <= 0 {
		return "", 0
	}
	var best float64
	for l, s := range p.Breakdown() {
		if s > best || (s == best && (label == "" || l < label)) {
			best, label = s, l
		}
	}
	return label, best / p.CoveredSeconds
}

// extractCritPath walks the epoch's event DAG backward from wall and returns
// the critical path. intervals and matches are indexed by worker and sorted
// in place. Deterministic for identical inputs: intervals are ordered by
// time, and matches by WaitEnd with ties kept in the order they were logged
// (a worker logs its waits in the order it made them).
func extractCritPath(wall time.Duration, intervals [][]IntervalEvent, matches [][]MatchEvent) *CritPath {
	p := &CritPath{WallSeconds: wall.Seconds()}
	if wall <= 0 || len(intervals) == 0 {
		return p
	}
	for _, ivs := range intervals {
		slices.SortStableFunc(ivs, func(a, b IntervalEvent) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End))
		})
	}
	for _, ms := range matches {
		slices.SortStableFunc(ms, func(a, b MatchEvent) int { return cmp.Compare(a.WaitEnd, b.WaitEnd) })
	}

	// Anchor on the worker whose recorded activity ended last: the epoch
	// barrier released when it finished, so the causal chain ends there.
	worker, latest := 0, time.Duration(-1)
	for w := range intervals {
		for _, iv := range intervals[w] {
			// Barrier intervals are the *consequence* of the critical chain
			// (everyone else idling), never its tail.
			if iv.Stage == StageBarrier {
				continue
			}
			if iv.End > latest {
				latest, worker = iv.End, w
			}
		}
	}

	var rev []CritSpan // built backward, reversed before return
	t := wall
	for t > 0 {
		var m *MatchEvent
		if worker < len(matches) {
			ms := matches[worker]
			for i := len(ms) - 1; i >= 0; i-- {
				c := &ms[i]
				if c.WaitEnd > t {
					continue
				}
				if c.WaitEnd-c.WaitStart <= bindingWaitEps {
					continue // found pending: not a binding dependency
				}
				if c.Sent >= t || c.From < 0 || c.From >= len(intervals) {
					continue
				}
				m = c
				break
			}
		}
		boundary := time.Duration(0)
		if m != nil {
			boundary = m.WaitEnd
		}
		if len(rev) >= critPathMaxSpans {
			m, boundary = nil, 0 // close out the remainder in one block
		}
		rev = appendComputeBlockRev(rev, intervals[worker], worker, boundary, t)
		if m == nil {
			break
		}
		sent := max(m.Sent, 0) // a message sent before the epoch began
		rev = append(rev, CritSpan{
			Kind: "net", Worker: m.Worker, From: m.From,
			MsgKind: m.Kind, Layer: m.Layer,
			StartSeconds: sent.Seconds(), EndSeconds: m.WaitEnd.Seconds(),
		})
		if sent >= t {
			break // no progress; defensive against inconsistent stamps
		}
		worker, t = m.From, sent
	}
	// Every retained record carries its path: store it at exact length.
	p.Spans = make([]CritSpan, len(rev))
	for i, s := range rev {
		p.Spans[len(rev)-1-i] = s
	}
	for _, s := range p.Spans {
		p.CoveredSeconds += s.Seconds()
	}
	return p
}

// appendComputeBlockRev emits the compute spans of worker over [boundary, t]
// in reverse-chronological order. The block exactly covers the window: each
// span starts where the previous one ended, so gaps before a recorded
// interval are charged to that interval's stage and a trailing gap extends
// the final span to t. Consecutive intervals of one (stage, layer) become one
// span. Only a window with no overlapping intervals at all yields an
// "unattributed" span.
func appendComputeBlockRev(rev []CritSpan, ivs []IntervalEvent, worker int, boundary, t time.Duration) []CritSpan {
	if t <= boundary {
		return rev
	}
	// Segments chronological first, then appended reversed.
	var segs []CritSpan
	cursor := boundary
	for _, iv := range ivs {
		if iv.End <= boundary || iv.Start >= t {
			continue
		}
		end := iv.End
		if end > t {
			end = t
		}
		if end <= cursor {
			continue
		}
		if n := len(segs); n > 0 && segs[n-1].Stage == iv.Stage.String() && segs[n-1].Layer == iv.Layer {
			segs[n-1].EndSeconds = end.Seconds()
			cursor = end
			continue
		}
		segs = append(segs, CritSpan{
			Kind: "compute", Worker: worker,
			Stage: iv.Stage.String(), Layer: iv.Layer,
			StartSeconds: cursor.Seconds(), EndSeconds: end.Seconds(),
		})
		cursor = end
	}
	if cursor < t {
		if n := len(segs); n > 0 {
			segs[n-1].EndSeconds = t.Seconds()
		} else {
			segs = append(segs, CritSpan{
				Kind: "compute", Worker: worker, Stage: "unattributed",
				StartSeconds: boundary.Seconds(), EndSeconds: t.Seconds(),
			})
		}
	}
	for i := len(segs) - 1; i >= 0; i-- {
		rev = append(rev, segs[i])
	}
	return rev
}
