package serve

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The request record: every query is one work value carried through the
// pipeline and stamped at each stage boundary. The stamps partition the
// server's wall time for the request into four stages that sum to the
// pipeline total:
//
//	queue   = (extractStart - submitted) + (computeStart - extractEnd)
//	        batcher wait plus both channel handoffs — time spent owned by
//	        nobody
//	cache   = nanoseconds inside embedding-cache lookups during extraction
//	extract = extraction work minus the cache share
//	compute = forward-pass work until the result row is sliced out
//
// Server.finish folds the stamps into one StageTiming per request, and every
// view reads that value: the Server-Timing header (response bodies stay
// bit-identical), the ns_serve_latency_seconds histogram (Total, with the
// trace id as an exemplar so a p99 bucket links to a concrete request) and
// the ns_serve_stage_seconds histograms — the serving half of "one clock,
// three views".

// Stage names used by the stage histogram's label, the Server-Timing header
// and the nsload report. StageTotal is the pipeline total (submitted to
// finished), not a fifth additive stage.
const (
	StageQueue   = "queue"
	StageCache   = "cache"
	StageExtract = "extract"
	StageCompute = "compute"
	StageTotal   = "total"
)

// work is one in-flight request and its record. submitted is stamped when
// Query takes the request; later stamps are written by exactly one pool
// worker each (or by Query, answering from the cache), ordered by the
// channel handoff that moves the work, and finished is the last write
// before done closes — no stamp is written concurrently with a read. The
// pipeline fills res or err.
type work struct {
	req  *Request
	seed uint64
	id   uint64

	submitted    time.Time
	extractStart time.Time
	extractEnd   time.Time
	computeStart time.Time
	finished     time.Time
	cacheNanos   int64

	res  *Result
	err  error
	done chan struct{}
}

func (w *work) fail(err error) {
	w.err = err
	close(w.done)
}

// timing folds the stamps into a StageTiming. Requests that failed before
// reaching a stage report zero for it.
func (w *work) timing() StageTiming {
	st := StageTiming{TraceID: w.id, Cache: time.Duration(w.cacheNanos)}
	if !w.extractStart.IsZero() {
		st.Queue = w.extractStart.Sub(w.submitted)
	}
	if !w.extractEnd.IsZero() {
		st.Extract = w.extractEnd.Sub(w.extractStart) - st.Cache
		if st.Extract < 0 {
			st.Extract = 0
		}
	}
	if !w.computeStart.IsZero() {
		st.Queue += w.computeStart.Sub(w.extractEnd)
	}
	if !w.finished.IsZero() {
		st.Compute = w.finished.Sub(w.computeStart)
		st.Total = w.finished.Sub(w.submitted)
	}
	return st
}

// StageTiming is a request's per-stage latency breakdown. Queue + Cache +
// Extract + Compute equals Total exactly (all five are carved from the same
// monotonic stamps); Total is the in-server pipeline time, which is the
// client-observed latency minus HTTP transport and encode/decode overhead.
type StageTiming struct {
	// TraceID is the request's pipeline trace id; its %016x rendering is the
	// exemplar trace_id on the latency histogram and the X-NS-Trace-Id header.
	TraceID uint64
	Queue   time.Duration
	Cache   time.Duration
	Extract time.Duration
	Compute time.Duration
	Total   time.Duration
}

// TraceIDHex renders the trace id the way exemplars and headers carry it.
func (t StageTiming) TraceIDHex() string { return fmt.Sprintf("%016x", t.TraceID) }

// StageSum returns the sum of the four additive stages — equal to Total for
// a completed request, which is what the stage-attribution test asserts.
func (t StageTiming) StageSum() time.Duration {
	return t.Queue + t.Cache + t.Extract + t.Compute
}

// ServerTiming renders the breakdown as a Server-Timing header value
// (RFC-style "name;dur=millis" entries, millisecond durations to 1µs).
func (t StageTiming) ServerTiming() string {
	b := make([]byte, 0, 128)
	for i, e := range [...]struct {
		name string
		d    time.Duration
	}{{StageQueue, t.Queue}, {StageCache, t.Cache}, {StageExtract, t.Extract}, {StageCompute, t.Compute}, {StageTotal, t.Total}} {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(append(b, e.name...), ";dur="...)
		b = strconv.AppendFloat(b, float64(e.d)/float64(time.Millisecond), 'f', 3, 64)
	}
	return string(b)
}

// ParseServerTiming parses a Server-Timing header value back into per-stage
// durations keyed by stage name. Entries without a dur parameter and
// malformed entries are skipped — the caller (nsload, tests) treats missing
// stages as zero.
func ParseServerTiming(header string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, entry := range strings.Split(header, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if len(parts) == 0 || parts[0] == "" {
			continue
		}
		name := strings.TrimSpace(parts[0])
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			ms, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				continue
			}
			out[name] = time.Duration(ms * float64(time.Millisecond))
		}
	}
	return out
}

// traceIDs renders the trace ids of a job's items for span attributes,
// truncated so a huge batch doesn't bloat the trace export.
func traceIDs(items []*work) string {
	const max = 8
	var b strings.Builder
	for i, w := range items {
		if i == max {
			fmt.Fprintf(&b, ",+%d", len(items)-max)
			break
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%016x", w.id)
	}
	return b.String()
}
