package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The metric registry: counters, gauges and fixed-bucket histograms with
// label support, exposed in Prometheus text exposition format (hand-rolled,
// stdlib only). Naming convention: ns_<subsystem>_<name>_<unit>, with
// counters suffixed _total.
//
// Registration is idempotent by family name so independent subsystems (or
// several engines in one process) can declare the same metric and share it;
// a redeclaration with a different type, help string or label set panics,
// since that is a programming error, not a runtime condition.

// metricKind discriminates the three collector families.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// atomicFloat is a float64 with atomic add/set via CAS on the bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Set(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. All methods are safe for
// concurrent use; a nil *Counter is a no-op.
type Counter struct {
	v atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.v.Add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	v atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Set(v)
}

// Add increments by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.Add(v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Exemplar ties one concrete observation to the trace that produced it: a
// latency bucket alone says "something landed here", the exemplar says which
// request, so a p99 spike links to an inspectable trace. TraceID is an opaque
// caller-chosen id string (serving uses the request trace id in hex).
type Exemplar struct {
	Value    float64 `json:"value"`
	TraceID  string  `json:"trace_id"`
	UnixNano int64   `json:"unix_nano"`
}

// Histogram counts observations into fixed buckets. upper holds the
// ascending finite bucket bounds; the +Inf bucket is implicit. A nil
// *Histogram is a no-op.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sum    atomicFloat
	n      atomic.Uint64
	// exemplars holds the most recent traced observation per bucket (nil
	// entry = no traced observation landed there yet). Same length as counts.
	exemplars []atomic.Pointer[Exemplar]
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Prometheus buckets are inclusive upper bounds: v goes to the first
	// bucket with upper >= v.
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// ObserveWithExemplar records one sample and remembers (value, traceID, now)
// as the bucket's exemplar, replacing any previous one — each bucket keeps
// its most recent traced observation, so the tail buckets always point at a
// fresh outlier trace.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string, at time.Time) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, UnixNano: at.UnixNano()})
	}
}

// Exemplars returns the per-bucket exemplars (len(buckets)+1 entries, +Inf
// last); nil entries mean no traced observation landed in that bucket.
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// bucketCounts loads the per-bucket (non-cumulative) counts.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the p-quantile (p clamped to [0, 1]) by linear
// interpolation inside the bucket containing the target rank — the same
// estimator Prometheus's histogram_quantile uses, so dashboards and the
// end-of-run report agree. The lower bound of the first bucket is 0; a rank
// landing in the +Inf bucket reports the largest finite bound (the value is
// known only to exceed it). Returns 0 for an empty histogram. Under
// concurrent Observe the estimate is approximate, like any monitoring read.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil || h.n.Load() == 0 {
		return 0
	}
	return bucketQuantile(h.upper, h.bucketCounts(), h.Sum(), p)
}

// bucketQuantile is the interpolating estimator behind Histogram.Quantile,
// shared with the metric history's windowed (delta-count) quantiles. counts
// are per-bucket (non-cumulative), len(upper)+1 with +Inf last; sum is only
// consulted for the degenerate no-finite-buckets case, where the mean is the
// only estimate available. Returns 0 when counts are all zero.
func bucketQuantile(upper []float64, counts []uint64, sum, p float64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := float64(p * float64(n))
	var cum float64
	for i, cn := range counts {
		c := float64(cn)
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i == len(upper) {
				// +Inf bucket: no finite upper bound to interpolate toward.
				if len(upper) == 0 {
					return sum / float64(n)
				}
				return upper[len(upper)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = upper[i-1]
			}
			return lower + float64((upper[i]-lower)*((rank-cum)/c))
		}
		cum += c
	}
	if len(upper) == 0 {
		return sum / float64(n)
	}
	return upper[len(upper)-1]
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n evenly spaced bucket bounds starting at start.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(float64(i)*width)
	}
	return out
}

// TimeBuckets spans 1µs to ~16.8s in powers of four — wide enough for both
// a single gather kernel and a full epoch.
var TimeBuckets = ExpBuckets(1e-6, 4, 12)

// SizeBuckets spans 64 B to ~1 GB in powers of four, for message and block
// sizes.
var SizeBuckets = ExpBuckets(64, 4, 12)

// series is one labeled instance within a family.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string
	buckets    []float64

	mu     sync.Mutex
	series map[string]*series
}

func (f *family) get(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labelValues: append([]string(nil), values...)}
	switch f.kind {
	case counterKind:
		s.c = &Counter{}
	case gaugeKind:
		s.g = &Gauge{}
	case histogramKind:
		s.h = &Histogram{
			upper:     f.buckets,
			counts:    make([]atomic.Uint64, len(f.buckets)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(f.buckets)+1),
		}
	}
	f.series[key] = s
	return s
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry or use
// Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level
// instrumentation (comm's message-size and fault families) registers into,
// that a Session's serving path shares, and that the debug server serves by
// default.
func Default() *Registry { return defaultRegistry }

func (r *Registry) family(name, help string, kind metricKind, labelNames []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !slices.Equal(f.labelNames, labelNames) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v, was %s%v",
				name, kind, labelNames, f.kind, f.labelNames))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labelNames: append([]string(nil), labelNames...),
		buckets:    append([]float64(nil), buckets...),
		series:     make(map[string]*series),
	}
	sort.Float64s(f.buckets)
	r.families[name] = f
	return f
}

// Counter returns the unlabeled counter with the given name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, counterKind, nil, nil).get(nil).c
}

// CounterVec declares a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, counterKind, labelNames, nil)}
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, gaugeKind, nil, nil).get(nil).g
}

// Histogram returns the unlabeled histogram with the given name and bucket
// bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, histogramKind, nil, buckets).get(nil).h
}

// HistogramVec declares a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, histogramKind, labelNames, buckets)}
}

// CounterVec resolves label values to counters.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first use).
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.get(labelValues).c }

// HistogramVec resolves label values to histograms.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.get(labelValues).h }

// writeSample renders one series line; extraName/extraValue append one more
// label (histograms' le), placed last.
func writeSample(b *strings.Builder, name string, labelNames, labelValues []string, extraName, extraValue string, v float64) {
	b.WriteString(name)
	if len(labelNames) > 0 || extraName != "" {
		b.WriteByte('{')
		first := true
		for i, ln := range labelNames {
			if !first {
				b.WriteByte(',')
			}
			first = false
			// %q escapes backslashes, quotes and newlines exactly as the
			// exposition format requires.
			fmt.Fprintf(b, "%s=%q", ln, labelValues[i])
		}
		if extraName != "" {
			if !first {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%s=%q", extraName, extraValue)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
