// Package metrics is the utilisation view of the span log (paper §5.4,
// Figure 13): it post-processes class-bearing spans into per-kind busy totals
// and time-bucketed utilisation series, the quantity the paper samples every
// 100 ms, and counts the fabric's traffic for the network-rate curve.
//
// A Collector is a thin classification layer over an obs.Tracer. The engine
// does not call it to time anything: each worker's obs.StageClock emits its
// intervals onto the collector's tracer, classed by the stage→class table in
// internal/obs, whose two busy classes are this package's Compute and Comm.
// The sampling baseline, which has no stages, brackets its phases with Track.
// Structural spans (epochs, layers, ring steps — class obs.ClassNone)
// organise the trace without perturbing the series: BuildSeries and Busy only
// consume spans whose class is a valid Kind.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neutronstar/internal/obs"
)

// Kind labels what a worker was doing during a tracked interval.
type Kind int

const (
	// Compute is accelerator-style work: tensor math in the training path.
	// Its busy fraction corresponds to the paper's GPU utilisation.
	Compute Kind = iota
	// Comm is communication work: packing, sending, receiving, unpacking.
	// Compute+Comm busy fraction corresponds to CPU utilisation.
	Comm
	// Sample is sampling work (DistDGL-like baseline only).
	Sample
	numKinds
)

// String returns the kind's display name.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Comm:
		return "comm"
	case Sample:
		return "sample"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Collector accumulates spans and byte counters. The zero value is not
// usable; call NewCollector. A nil *Collector is legal everywhere and makes
// every method a no-op, so instrumentation can stay in place unconditionally.
type Collector struct {
	tr *obs.Tracer

	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	// recvStamps records (offset, bytes) pairs for network-rate series,
	// stamped on the tracer's clock so spans and rate curves align.
	recvMu     sync.Mutex
	recvStamps []recvStamp
}

type recvStamp struct {
	at    time.Duration
	bytes int64
}

// NewCollector returns an empty collector. Its clock starts at the first
// tracked event.
func NewCollector() *Collector { return &Collector{tr: obs.NewTracer()} }

// Tracer exposes the underlying span tracer: the sink the engine attaches to
// its workers' stage clocks, so their intervals land on this collector's
// timeline. Nil-safe.
func (c *Collector) Tracer() *obs.Tracer {
	if c == nil {
		return nil
	}
	return c.tr
}

// Track records the start of an interval of the given kind on worker w and
// returns a function that closes the interval. Typical use:
//
//	defer c.Track(w, metrics.Compute)()
func (c *Collector) Track(w int, kind Kind) func() {
	if c == nil {
		return func() {}
	}
	sp := c.tr.Start(w, int(kind), kind.String())
	return sp.End
}

// Group opens a structural span (a ring step) that organises busy intervals
// in the trace without itself counting as busy time. attrs is copied, so a
// call on a nil collector allocates nothing.
func (c *Collector) Group(w int, name string, attrs ...obs.Attr) *obs.Span {
	if c == nil {
		return nil
	}
	return c.tr.Start(w, obs.ClassNone, name, append([]obs.Attr(nil), attrs...)...)
}

// AddSent records n payload bytes leaving any worker.
func (c *Collector) AddSent(n int64) {
	if c == nil {
		return
	}
	c.bytesSent.Add(n)
}

// AddReceived records n payload bytes arriving, stamped for rate series.
func (c *Collector) AddReceived(n int64) {
	if c == nil {
		return
	}
	c.bytesRecv.Add(n)
	at := c.tr.Now()
	c.recvMu.Lock()
	c.recvStamps = append(c.recvStamps, recvStamp{at: at, bytes: n})
	c.recvMu.Unlock()
}

// BytesSent returns total payload bytes sent.
func (c *Collector) BytesSent() int64 {
	if c == nil {
		return 0
	}
	return c.bytesSent.Load()
}

// BytesReceived returns total payload bytes received.
func (c *Collector) BytesReceived() int64 {
	if c == nil {
		return 0
	}
	return c.bytesRecv.Load()
}

// kindOf maps a span to its Kind, or false for structural / foreign spans.
func kindOf(sp obs.SpanData) (Kind, bool) {
	if sp.Class < 0 || sp.Class >= int(numKinds) {
		return 0, false
	}
	return Kind(sp.Class), true
}

// Busy returns the total busy time of the given kind summed over workers.
func (c *Collector) Busy(kind Kind) time.Duration {
	if c == nil {
		return 0
	}
	var total time.Duration
	for _, sp := range c.tr.Snapshot() {
		if k, ok := kindOf(sp); ok && k == kind {
			total += sp.Duration()
		}
	}
	return total
}

// Series is a time-bucketed utilisation report.
type Series struct {
	Bucket time.Duration
	// Util[kind][b] is the mean fraction (0..1, can exceed 1 for multi-core
	// comm threads) of bucket b that workers spent in that kind.
	Util [][]float64
	// NetBytesPerSec[b] is the receive rate during bucket b.
	NetBytesPerSec []float64
}

// NumBuckets returns the series length.
func (s *Series) NumBuckets() int { return len(s.NetBytesPerSec) }

// BuildSeries buckets the recorded intervals into fixed windows across
// numWorkers workers. An empty (but non-nil) collector yields a single
// all-zero bucket; zero-duration intervals contribute nothing (the
// per-bucket overlap hi-lo is empty), but still extend the series end.
func (c *Collector) BuildSeries(bucket time.Duration, numWorkers int) *Series {
	if c == nil || numWorkers == 0 {
		return &Series{Bucket: bucket, Util: make([][]float64, numKinds)}
	}
	spans := c.tr.Snapshot()
	c.recvMu.Lock()
	stamps := make([]recvStamp, len(c.recvStamps))
	copy(stamps, c.recvStamps)
	c.recvMu.Unlock()

	var end time.Duration
	for _, sp := range spans {
		if _, ok := kindOf(sp); ok && sp.End > end {
			end = sp.End
		}
	}
	for _, st := range stamps {
		if st.at > end {
			end = st.at
		}
	}
	n := int(end/bucket) + 1
	s := &Series{Bucket: bucket, Util: make([][]float64, numKinds), NetBytesPerSec: make([]float64, n)}
	for k := range s.Util {
		s.Util[k] = make([]float64, n)
	}
	for _, sp := range spans {
		kind, ok := kindOf(sp)
		if !ok {
			continue
		}
		for b := int(sp.Start / bucket); b <= int(sp.End/bucket) && b < n; b++ {
			lo := max(sp.Start, time.Duration(b)*bucket)
			hi := min(sp.End, time.Duration(b+1)*bucket)
			if hi > lo {
				s.Util[kind][b] += float64(hi-lo) / float64(bucket) / float64(numWorkers)
			}
		}
	}
	for _, st := range stamps {
		b := int(st.at / bucket)
		if b < n {
			s.NetBytesPerSec[b] += float64(st.bytes) / bucket.Seconds()
		}
	}
	return s
}

// MeanUtil returns the mean utilisation of a kind across non-empty buckets.
func (s *Series) MeanUtil(kind Kind) float64 {
	u := s.Util[kind]
	if len(u) == 0 {
		return 0
	}
	var sum float64
	for _, v := range u {
		sum += v
	}
	return sum / float64(len(u))
}

// PeakNetRate returns the maximum receive rate over the series.
func (s *Series) PeakNetRate() float64 {
	var m float64
	for _, v := range s.NetBytesPerSec {
		if v > m {
			m = v
		}
	}
	return m
}

// SmoothnessCV returns the coefficient of variation of the non-zero network
// rate buckets: lower means the bandwidth curve is smoother (the quality the
// paper attributes to ring scheduling in Fig 13c).
func (s *Series) SmoothnessCV() float64 {
	var vals []float64
	for _, v := range s.NetBytesPerSec {
		if v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) < 2 {
		return 0
	}
	sort.Float64s(vals)
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var varSum float64
	for _, v := range vals {
		varSum += (v - mean) * (v - mean)
	}
	if mean == 0 {
		return 0
	}
	return math.Sqrt(varSum/float64(len(vals))) / mean
}

// WriteChromeTrace dumps every recorded span in the Chrome trace-event
// format (a JSON array loadable in chrome://tracing or Perfetto): "M"
// metadata events name each worker row "worker N", then one "X" complete
// event per span with its attributes as args. Timestamps are microseconds
// from the collector's first event. The output always ends with a newline,
// including the nil collector's empty array.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	return c.Tracer().WriteChromeTrace(w, func(i int) string {
		return fmt.Sprintf("worker %d", i)
	})
}
