package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The metric history is the bridge between instantaneous counters and the
// questions operators actually ask ("what was the p99 over the last minute",
// "is the hit rate degrading"): a fixed-capacity ring buffer of whole-
// registry snapshots, taken periodically and/or at natural barriers (the
// engine samples at each epoch boundary), queryable as windowed time series
// via the /timeline endpoint. Counters are rendered as per-second rates,
// gauges as values, histograms as interval quantiles computed from bucket
// deltas — a true windowed p99, not the cumulative since-process-start
// estimate — which is also what the watchdog's SLO burn-rate rules judge.

const (
	// defaultHistoryCap bounds retained samples: ~10 minutes at the default
	// 1s sampling step.
	defaultHistoryCap = 600
	// DefaultHistoryStep is the periodic sampling interval Start uses when
	// given a non-positive step.
	DefaultHistoryStep = time.Second
)

// histSample is one whole-registry snapshot keyed by series.
type histSample struct {
	at     time.Time
	series map[string]SeriesSnapshot
}

// History is the fixed-capacity metric time-series ring buffer. All methods
// are safe for concurrent use; a nil *History is a no-op that answers empty
// timelines.
type History struct {
	reg  *Registry
	capN int

	mu       sync.Mutex
	ring     []histSample // chronological ring; oldest at head
	head, n  int
	onSample func()
	now      func() time.Time // test hook

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewHistory returns a history sampling reg (Default() when nil) with the
// given ring capacity (<= 0 selects defaultHistoryCap). It records nothing
// until Sample or Start is called.
func NewHistory(reg *Registry, capacity int) *History {
	if reg == nil {
		reg = Default()
	}
	if capacity <= 0 {
		capacity = defaultHistoryCap
	}
	return &History{
		reg:  reg,
		capN: capacity,
		ring: make([]histSample, capacity),
		now:  time.Now,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// SetOnSample registers a callback invoked after every recorded sample (the
// watchdog's Check). Call before Start.
func (h *History) SetOnSample(cb func()) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.onSample = cb
	h.mu.Unlock()
}

// Start launches the periodic sampler (step <= 0 selects DefaultHistoryStep),
// beginning with an immediate baseline sample — so activity inside the first
// step (a burst that beats the first tick) still forms an interval to
// difference against. Idempotent; Stop ends it.
func (h *History) Start(step time.Duration) {
	if h == nil {
		return
	}
	if step <= 0 {
		step = DefaultHistoryStep
	}
	h.startOnce.Do(func() {
		h.Sample(h.now())
		go func() {
			defer close(h.done)
			t := time.NewTicker(step)
			defer t.Stop()
			for {
				select {
				case <-h.stop:
					return
				case at := <-t.C:
					h.Sample(at)
				}
			}
		}()
	})
}

// Stop ends the periodic sampler and waits for it to exit. Safe to call
// without Start and more than once.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	h.startOnce.Do(func() { close(h.done) }) // never started: mark done
	<-h.done
}

// Sample records one whole-registry snapshot at the given time. Out-of-order
// timestamps (an epoch-barrier sample racing the ticker) are clamped to keep
// the ring chronological.
func (h *History) Sample(at time.Time) {
	if h == nil {
		return
	}
	snaps := h.reg.Gather()
	series := make(map[string]SeriesSnapshot, len(snaps))
	for _, sn := range snaps {
		series[sn.Key()] = sn
	}
	h.mu.Lock()
	if h.n > 0 {
		if last := h.ring[(h.head+h.n-1)%h.capN].at; !at.After(last) {
			at = last.Add(time.Nanosecond)
		}
	}
	if h.n < h.capN {
		h.ring[(h.head+h.n)%h.capN] = histSample{at: at, series: series}
		h.n++
	} else {
		h.ring[h.head] = histSample{at: at, series: series}
		h.head = (h.head + 1) % h.capN
	}
	cb := h.onSample
	h.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// Len returns the number of retained samples.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// samplesSince copies the retained samples with at >= cutoff, oldest first.
func (h *History) samplesSince(cutoff time.Time) []histSample {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]histSample, 0, h.n)
	for i := 0; i < h.n; i++ {
		s := h.ring[(h.head+i)%h.capN]
		if !s.at.Before(cutoff) {
			out = append(out, s)
		}
	}
	return out
}

// TimelinePoint is one (time, value) pair of a timeline series.
type TimelinePoint struct {
	UnixNano int64   `json:"t"`
	Value    float64 `json:"v"`
}

// TimelineSeries is one rendered series of a Timeline. A metric family can
// expand into several: a counter yields one "rate" series, a gauge one
// "value" series, and a histogram "rate", "p50" and "p99" series (interval
// quantiles from bucket deltas; quantile points with no observations in the
// interval are omitted). Exemplars carries the histogram's current bucket
// exemplars (most-recent traced observation per bucket, tail first) on the
// "p99" series only.
type TimelineSeries struct {
	Name      string            `json:"name"`
	Kind      string            `json:"kind"`
	Stat      string            `json:"stat"`
	Labels    map[string]string `json:"labels,omitempty"`
	Points    []TimelinePoint   `json:"points"`
	Exemplars []Exemplar        `json:"exemplars,omitempty"`
}

// Timeline answers one /timeline query.
type Timeline struct {
	StartUnixNano int64            `json:"start_unix_nano"`
	EndUnixNano   int64            `json:"end_unix_nano"`
	WindowSeconds float64          `json:"window_seconds"`
	StepSeconds   float64          `json:"step_seconds"`
	Samples       int              `json:"samples"`
	Series        []TimelineSeries `json:"series"`
}

// Query renders the retained history over the trailing window, thinned to at
// most one sample per step. Every series present in any in-window sample
// appears in the result, even when it has no renderable points yet (rates
// need two samples). Counter rates are reset-aware: a decrease is read as a
// restart from zero, so the increase is the new cumulative value.
func (h *History) Query(window, step time.Duration) *Timeline {
	if window <= 0 {
		window = time.Minute
	}
	if step <= 0 {
		step = DefaultHistoryStep
	}
	tl := &Timeline{
		WindowSeconds: window.Seconds(),
		StepSeconds:   step.Seconds(),
		Series:        []TimelineSeries{},
	}
	if h == nil {
		return tl
	}
	now := h.now()
	tl.StartUnixNano = now.Add(-window).UnixNano()
	tl.EndUnixNano = now.UnixNano()
	all := h.samplesSince(now.Add(-window))
	// Thin to one sample per step, always keeping the newest.
	var sel []histSample
	for i, s := range all {
		if len(sel) == 0 || !s.at.Before(sel[len(sel)-1].at.Add(step)) || i == len(all)-1 {
			sel = append(sel, s)
		}
	}
	tl.Samples = len(sel)
	if len(sel) == 0 {
		return tl
	}

	builders := make(map[string]*[]TimelineSeries)
	order := []string{}
	add := func(key string, mk func() []TimelineSeries) *[]TimelineSeries {
		if b, ok := builders[key]; ok {
			return b
		}
		ss := mk()
		builders[key] = &ss
		order = append(order, key)
		return &ss
	}
	for i, s := range sel {
		var prev *histSample
		if i > 0 {
			prev = &sel[i-1]
		}
		for key, sn := range s.series {
			sn := sn
			b := add(key, func() []TimelineSeries { return newTimelineSeries(sn) })
			appendPoints(*b, s.at, sn, prev, key)
		}
	}
	// Attach exemplars from the newest sample's histograms to the p99 series.
	newest := sel[len(sel)-1]
	for key, sn := range newest.series {
		if sn.Kind != "histogram" {
			continue
		}
		if b, ok := builders[key]; ok {
			for bi := range *b {
				if (*b)[bi].Stat == "p99" {
					(*b)[bi].Exemplars = tailExemplars(sn.Exemplars)
				}
			}
		}
	}
	sort.Strings(order)
	for _, key := range order {
		tl.Series = append(tl.Series, *builders[key]...)
	}
	return tl
}

// newTimelineSeries builds the (empty) series set one snapshot expands into.
func newTimelineSeries(sn SeriesSnapshot) []TimelineSeries {
	mk := func(stat string) TimelineSeries {
		return TimelineSeries{
			Name: sn.Name, Kind: sn.Kind, Stat: stat,
			Labels: sn.Labels(), Points: []TimelinePoint{},
		}
	}
	switch sn.Kind {
	case "counter":
		return []TimelineSeries{mk("rate")}
	case "gauge":
		return []TimelineSeries{mk("value")}
	default:
		return []TimelineSeries{mk("rate"), mk("p50"), mk("p99")}
	}
}

// appendPoints appends this sample's points to the series set. prev is the
// previous selected sample (nil for the first), used for rates and interval
// quantiles.
func appendPoints(b []TimelineSeries, at time.Time, sn SeriesSnapshot, prev *histSample, key string) {
	t := at.UnixNano()
	put := func(stat string, v float64) {
		for i := range b {
			if b[i].Stat == stat {
				b[i].Points = append(b[i].Points, TimelinePoint{UnixNano: t, Value: v})
				return
			}
		}
	}
	switch sn.Kind {
	case "gauge":
		put("value", sn.Value)
	case "counter":
		if prev == nil {
			return
		}
		// A series absent from the previous sample was born this interval (a
		// vec child observed for the first time): its whole cumulative state
		// is the increase, the same reading a reset gets.
		p := prev.series[key]
		dt := at.Sub(prev.at).Seconds()
		if dt <= 0 {
			return
		}
		put("rate", counterIncrease(p.Value, sn.Value)/dt)
	case "histogram":
		if prev == nil {
			return
		}
		p := prev.series[key]
		dt := at.Sub(prev.at).Seconds()
		if dt <= 0 {
			return
		}
		delta, sum, cnt := histogramDelta(&p, &sn)
		put("rate", float64(cnt)/dt)
		if cnt == 0 {
			return
		}
		put("p50", bucketQuantile(sn.Upper, delta, sum, 0.50))
		put("p99", bucketQuantile(sn.Upper, delta, sum, 0.99))
	}
}

// counterIncrease is the reset-aware increase between two cumulative counter
// readings: a decrease means the process (or counter) restarted from zero,
// so the whole new value is the increase — the same convention Prometheus's
// rate() applies.
func counterIncrease(prev, cur float64) float64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// histogramDelta returns the per-bucket increases between two snapshots of
// one histogram, with the whole current state standing in after a reset.
func histogramDelta(prev, cur *SeriesSnapshot) (delta []uint64, sum float64, count uint64) {
	if cur.Count < prev.Count || len(prev.Buckets) != len(cur.Buckets) {
		return cur.Buckets, cur.Sum, cur.Count
	}
	delta = make([]uint64, len(cur.Buckets))
	for i := range delta {
		if cur.Buckets[i] >= prev.Buckets[i] {
			delta[i] = cur.Buckets[i] - prev.Buckets[i]
		}
	}
	return delta, cur.Sum - prev.Sum, cur.Count - prev.Count
}

// tailExemplars returns the non-nil bucket exemplars, highest bucket first —
// the order a dashboard wants: the worst outlier's trace id leads.
func tailExemplars(exs []*Exemplar) []Exemplar {
	var out []Exemplar
	for i := len(exs) - 1; i >= 0; i-- {
		if exs[i] != nil {
			out = append(out, *exs[i])
		}
	}
	return out
}

// windows returns the samples within d of the newest sample and within d of
// the one before it, oldest first: the window an SLO rule judges now and the
// one it judged at the previous sample.
func (h *History) windows(d time.Duration) (cur, prev []histSample) {
	if h == nil {
		return nil, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	at := func(i int) histSample { return h.ring[(h.head+i)%h.capN] }
	upTo := func(end int) []histSample {
		start := end
		for start > 0 && !at(start-1).at.Before(at(end).at.Add(-d)) {
			start--
		}
		out := make([]histSample, 0, end-start+1)
		for i := start; i <= end; i++ {
			out = append(out, at(i))
		}
		return out
	}
	if h.n > 0 {
		cur = upTo(h.n - 1)
	}
	if h.n > 1 {
		prev = upTo(h.n - 2)
	}
	return cur, prev
}

// seriesEnds returns the oldest and newest snapshots of one series key in a
// window of samples and the time between them. ok is false when fewer than
// two samples carry the series.
func seriesEnds(win []histSample, key string) (first, last SeriesSnapshot, dt time.Duration, ok bool) {
	var firstAt, lastAt time.Time
	n := 0
	for _, s := range win {
		if sn, has := s.series[key]; has {
			if n == 0 {
				first, firstAt = sn, s.at
			}
			last, lastAt, n = sn, s.at, n+1
		}
	}
	return first, last, lastAt.Sub(firstAt), n >= 2
}

// TimelineHandler serves a History as the /timeline endpoint:
//
//	GET /timeline?window=60s&step=2s
//
// window (default 60s) bounds how far back the series reach; step (default
// 1s) thins the retained samples. Both accept Go durations ("90s", "2m") or
// bare seconds ("90"). Malformed parameters get 400.
func TimelineHandler(h *History) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		window, err := durationParam(r.URL.Query().Get("window"), time.Minute)
		if err != nil {
			http.Error(w, "bad window: "+err.Error(), http.StatusBadRequest)
			return
		}
		step, err := durationParam(r.URL.Query().Get("step"), DefaultHistoryStep)
		if err != nil {
			http.Error(w, "bad step: "+err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h.Query(window, step))
	}
}

// durationParam parses a query parameter as a Go duration or bare seconds,
// requiring a positive result; empty selects def.
func durationParam(s string, def time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		secs, err2 := strconv.ParseFloat(s, 64)
		if err2 != nil {
			return 0, err
		}
		d = time.Duration(secs * float64(time.Second))
	}
	if d <= 0 {
		return 0, strconv.ErrRange
	}
	return d, nil
}
