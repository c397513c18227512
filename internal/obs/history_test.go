package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// histClock is a fake clock shared by a History and a Watchdog so windowed
// queries and SLO evaluation see the same deterministic time.
type histClock struct {
	mu sync.Mutex
	t  time.Time
}

func newHistClock() *histClock {
	return &histClock{t: time.Unix(1700000000, 0)}
}

func (c *histClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *histClock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// findTimeline returns the first series matching name and stat.
func findTimeline(tl *Timeline, name, stat string) *TimelineSeries {
	for i := range tl.Series {
		if tl.Series[i].Name == name && tl.Series[i].Stat == stat {
			return &tl.Series[i]
		}
	}
	return nil
}

func TestHistoryRingWraparound(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("wrap_gauge", "t")
	clock := newHistClock()
	h := NewHistory(reg, 4)
	h.now = clock.now

	for i := 1; i <= 10; i++ {
		g.Set(float64(i))
		h.Sample(clock.advance(time.Second))
	}
	if h.Len() != 4 {
		t.Fatalf("Len() = %d after 10 samples into a 4-ring", h.Len())
	}
	tl := h.Query(time.Hour, time.Second)
	s := findTimeline(tl, "wrap_gauge", "value")
	if s == nil {
		t.Fatalf("no wrap_gauge series in %+v", tl.Series)
	}
	want := []float64{7, 8, 9, 10} // oldest 6 overwritten
	if len(s.Points) != len(want) {
		t.Fatalf("got %d points, want %d: %+v", len(s.Points), len(want), s.Points)
	}
	for i, p := range s.Points {
		if p.Value != want[i] {
			t.Fatalf("point %d = %v, want %v", i, p.Value, want[i])
		}
	}
}

func TestHistoryCounterRate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rate_total", "t")
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now

	h.Sample(clock.now())
	for i := 0; i < 3; i++ {
		c.Add(5)
		h.Sample(clock.advance(time.Second))
	}
	s := findTimeline(h.Query(time.Hour, time.Second), "rate_total", "rate")
	if s == nil || len(s.Points) != 3 {
		t.Fatalf("rate series: %+v", s)
	}
	for i, p := range s.Points {
		if p.Value != 5 {
			t.Fatalf("rate point %d = %v, want 5/s", i, p.Value)
		}
	}
}

// TestHistoryCounterResetRate restarts the backing registry mid-history (the
// in-process stand-in for a process restart) and asserts the rate follows the
// Prometheus convention: a decrease reads as a restart from zero, so the new
// cumulative value is the increase — never a negative rate.
func TestHistoryCounterResetRate(t *testing.T) {
	regA := NewRegistry()
	regA.Counter("reset_total", "t").Add(100)
	clock := newHistClock()
	h := NewHistory(regA, 0)
	h.now = clock.now
	h.Sample(clock.now())

	regB := NewRegistry()
	regB.Counter("reset_total", "t").Add(3)
	h.reg = regB
	h.Sample(clock.advance(time.Second))

	s := findTimeline(h.Query(time.Hour, time.Second), "reset_total", "rate")
	if s == nil || len(s.Points) != 1 {
		t.Fatalf("rate series: %+v", s)
	}
	if got := s.Points[0].Value; got != 3 {
		t.Fatalf("post-reset rate = %v, want 3 (new cumulative value)", got)
	}
}

// TestHistorySeriesBirthMidWindow covers vec children created lazily after
// sampling has begun (a label combination first observed mid-run): the
// interval in which the series appears must yield points, reading its whole
// cumulative state as the increase.
func TestHistorySeriesBirthMidWindow(t *testing.T) {
	reg := NewRegistry()
	vec := reg.HistogramVec("birth_seconds", "t", ExpBuckets(1e-3, 10, 4), "stage")
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now

	h.Sample(clock.now()) // no vec child exists yet
	for i := 0; i < 50; i++ {
		vec.With("queue").Observe(0.01)
	}
	h.Sample(clock.advance(time.Second))

	tl := h.Query(time.Hour, time.Second)
	rate := findTimeline(tl, "birth_seconds", "rate")
	p50 := findTimeline(tl, "birth_seconds", "p50")
	if rate == nil || len(rate.Points) != 1 || rate.Points[0].Value != 50 {
		t.Fatalf("rate of series born mid-window: %+v", rate)
	}
	if p50 == nil || len(p50.Points) != 1 {
		t.Fatalf("p50 of series born mid-window: %+v", p50)
	}
	if v := p50.Points[0].Value; v < 0.001 || v > 0.1 {
		t.Fatalf("p50 = %v, want within the observed bucket", v)
	}
}

// TestHistoryWindowedQuantiles asserts the timeline quantiles are interval
// quantiles from bucket deltas, not cumulative-since-start: after the load
// shifts from 1ms to 1s observations, the newest p50 must reflect only the
// slow interval.
func TestHistoryWindowedQuantiles(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Histogram("lat_seconds", "t", ExpBuckets(1e-4, 10, 6))
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now

	h.Sample(clock.now())
	for i := 0; i < 1000; i++ {
		hist.Observe(0.001)
	}
	h.Sample(clock.advance(time.Second))
	for i := 0; i < 100; i++ {
		hist.Observe(1.0)
	}
	h.Sample(clock.advance(time.Second))

	s := findTimeline(h.Query(time.Hour, time.Second), "lat_seconds", "p50")
	if s == nil || len(s.Points) != 2 {
		t.Fatalf("p50 series: %+v", s)
	}
	if fast := s.Points[0].Value; fast > 0.01 {
		t.Fatalf("fast-interval p50 = %v, want ~1ms", fast)
	}
	// 1000 fast obs dominate cumulatively; only a windowed quantile sees 1s.
	if slow := s.Points[1].Value; slow < 0.1 {
		t.Fatalf("slow-interval p50 = %v, want ~1s (cumulative leak?)", slow)
	}
}

func TestHistoryExemplarsOnP99(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Histogram("ex_seconds", "t", ExpBuckets(1e-3, 10, 4))
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now

	h.Sample(clock.now())
	hist.ObserveWithExemplar(0.002, "00000000000000aa", clock.now())
	hist.ObserveWithExemplar(5.0, "00000000000000ff", clock.now())
	h.Sample(clock.advance(time.Second))

	tl := h.Query(time.Hour, time.Second)
	p99 := findTimeline(tl, "ex_seconds", "p99")
	if p99 == nil || len(p99.Exemplars) == 0 {
		t.Fatalf("p99 series has no exemplars: %+v", p99)
	}
	// Tail first: the worst outlier's trace id leads.
	if p99.Exemplars[0].TraceID != "00000000000000ff" {
		t.Fatalf("leading exemplar = %+v, want the 5s outlier", p99.Exemplars[0])
	}
	if rate := findTimeline(tl, "ex_seconds", "rate"); rate != nil && len(rate.Exemplars) != 0 {
		t.Fatalf("exemplars leaked onto the rate series: %+v", rate.Exemplars)
	}
}

// TestTimelineHandlerEverySeries scrapes /timeline over HTTP and asserts
// every registered metric appears as at least one series, the core /timeline
// contract.
func TestTimelineHandlerEverySeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("tlh_total", "t").Add(2)
	reg.Gauge("tlh_gauge", "t").Set(7)
	reg.Histogram("tlh_seconds", "t", ExpBuckets(1e-3, 10, 4)).Observe(0.01)
	reg.CounterVec("tlh_labeled_total", "t", "kind").With("a").Add(1)
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now
	h.Sample(clock.now())
	h.Sample(clock.advance(time.Second))

	ts := httptest.NewServer(TimelineHandler(h))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "?window=60s&step=1s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var tl Timeline
	if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range tl.Series {
		seen[s.Name] = true
	}
	for _, name := range []string{"tlh_total", "tlh_gauge", "tlh_seconds", "tlh_labeled_total"} {
		if !seen[name] {
			t.Fatalf("metric %s missing from /timeline; got %v", name, seen)
		}
	}
	if s := findTimeline(&tl, "tlh_labeled_total", "rate"); s == nil || s.Labels["kind"] != "a" {
		t.Fatalf("labeled series lost its labels: %+v", s)
	}

	for _, bad := range []string{"?window=banana", "?step=-5", "?window=0"} {
		resp, err := ts.Client().Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestHistoryConcurrentScrape exercises sampling, metric updates and
// /timeline queries concurrently; run under -race it is the data-race gate
// for the whole history path.
func TestHistoryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("conc_total", "t")
	hist := reg.Histogram("conc_seconds", "t", ExpBuckets(1e-3, 10, 4))
	h := NewHistory(reg, 32)
	ts := httptest.NewServer(TimelineHandler(h))
	defer ts.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			hist.ObserveWithExemplar(0.005, "0000000000000001", time.Now())
			if i%10 == 0 {
				h.Sample(time.Now())
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := ts.Client().Get(ts.URL + "?window=10s&step=1ms")
				if err != nil {
					t.Error(err)
					return
				}
				var tl Timeline
				if err := json.NewDecoder(resp.Body).Decode(&tl); err != nil {
					t.Error(err)
				}
				resp.Body.Close()
				h.Query(time.Second, time.Millisecond)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestHistoryStartStop(t *testing.T) {
	h := NewHistory(NewRegistry(), 8)
	h.Start(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for h.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.Len() == 0 {
		t.Fatal("periodic sampler recorded nothing")
	}
	h.Stop()
	h.Stop() // idempotent

	var unstarted *History
	unstarted.Stop() // nil-safe
	if tl := unstarted.Query(time.Minute, time.Second); len(tl.Series) != 0 {
		t.Fatalf("nil history answered %d series", len(tl.Series))
	}
	h2 := NewHistory(NewRegistry(), 8)
	h2.Stop() // Stop without Start must not hang
}

// TestWatchdogSLOBurnRate drives a synthetic p99 breach through the history
// and asserts the burn-rate rule fires once per episode: fast traffic is
// quiet, a slow window alerts, a sustained breach stays silent, and a
// breach after a window that meets the SLO is a new episode.
func TestWatchdogSLOBurnRate(t *testing.T) {
	reg := NewRegistry()
	lat := reg.Histogram(serveLatencyMetric, "t", ExpBuckets(1e-5, 2.5, 16))
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now
	rules := WatchRules{SLOP99: 250 * time.Millisecond, SLOWindow: 30 * time.Second}
	w := NewWatchdog(rules, nil, h, nil)
	w.now = clock.now

	observe := func(n int, sec float64) {
		for i := 0; i < n; i++ {
			lat.Observe(sec)
		}
	}

	h.Sample(clock.now())
	observe(100, 0.001) // all under target
	h.Sample(clock.advance(5 * time.Second))
	if alerts := w.Check(); len(alerts) != 0 {
		t.Fatalf("healthy window fired %+v", alerts)
	}

	observe(50, 0.5) // 50 of 150 windowed requests above 250ms: burn 33x
	h.Sample(clock.advance(5 * time.Second))
	alerts := w.Check()
	if len(alerts) != 1 || alerts[0].Rule != RuleSLOP99 {
		t.Fatalf("breach fired %+v, want one %s alert", alerts, RuleSLOP99)
	}
	if alerts[0].Value <= 1 {
		t.Fatalf("burn rate %v, want > 1", alerts[0].Value)
	}

	observe(50, 0.5) // breach persists: the previous window breached too, no second alert
	h.Sample(clock.advance(5 * time.Second))
	if alerts := w.Check(); len(alerts) != 0 {
		t.Fatalf("latched breach re-fired %+v", alerts)
	}

	// Recovery: advance past the slow samples so the window holds only fast
	// traffic...
	clock.advance(time.Minute)
	h.Sample(clock.now())
	observe(100, 0.001)
	h.Sample(clock.advance(5 * time.Second))
	if alerts := w.Check(); len(alerts) != 0 {
		t.Fatalf("recovered window fired %+v", alerts)
	}
	// ...and a fresh breach is a new episode with a new alert.
	observe(50, 0.5)
	h.Sample(clock.advance(5 * time.Second))
	if alerts := w.Check(); len(alerts) != 1 {
		t.Fatalf("fresh breach after recovery fired %+v, want one alert", alerts)
	}
}

func TestWatchdogSLOHitRateFloor(t *testing.T) {
	reg := NewRegistry()
	hits := reg.Counter(serveCacheHitsMetric, "t")
	misses := reg.Counter(serveCacheMissesMetric, "t")
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now
	w := NewWatchdog(WatchRules{HitRate: 0.5, SLOWindow: 30 * time.Second}, nil, h, nil)
	w.now = clock.now

	h.Sample(clock.now())
	hits.Add(90)
	misses.Add(10)
	h.Sample(clock.advance(5 * time.Second))
	if alerts := w.Check(); len(alerts) != 0 {
		t.Fatalf("90%% hit rate fired %+v", alerts)
	}
	misses.Add(1000) // windowed hit rate collapses
	h.Sample(clock.advance(5 * time.Second))
	alerts := w.Check()
	if len(alerts) != 1 || alerts[0].Rule != RuleSLOHitRate {
		t.Fatalf("cold cache fired %+v, want one %s alert", alerts, RuleSLOHitRate)
	}
}

// TestWatchdogSLOMinTraffic asserts the minimum-traffic gates: a tiny window
// (one unlucky request) must not alert.
func TestWatchdogSLOMinTraffic(t *testing.T) {
	reg := NewRegistry()
	lat := reg.Histogram(serveLatencyMetric, "t", ExpBuckets(1e-5, 2.5, 16))
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now
	w := NewWatchdog(WatchRules{SLOP99: 250 * time.Millisecond}, nil, h, nil)
	w.now = clock.now

	h.Sample(clock.now())
	for i := 0; i < sloMinRequests-1; i++ {
		lat.Observe(10.0) // grotesquely slow, but below the traffic gate
	}
	h.Sample(clock.advance(5 * time.Second))
	if alerts := w.Check(); len(alerts) != 0 {
		t.Fatalf("under-traffic window fired %+v", alerts)
	}
}

// TestWatchdogHealthyWhenIdleAfterBreach: a window under the traffic gate
// is not a breach, so an idle server is healthy once its breach leaves the
// window, with the alert kept in the log; a breach after that idle window
// is a new episode.
func TestWatchdogHealthyWhenIdleAfterBreach(t *testing.T) {
	reg := NewRegistry()
	lat := reg.Histogram(serveLatencyMetric, "t", ExpBuckets(1e-5, 2.5, 16))
	clock := newHistClock()
	h := NewHistory(reg, 0)
	h.now = clock.now
	w := NewWatchdog(WatchRules{SLOP99: 250 * time.Millisecond}, nil, h, nil)
	w.now = clock.now
	h.SetOnSample(func() { w.Check() })
	breach := func() {
		for i := 0; i < 50; i++ {
			lat.Observe(0.5)
		}
		h.Sample(clock.advance(time.Second))
	}

	h.Sample(clock.now())
	breach()
	if rep := w.Health(); rep.Healthy || len(rep.Alerts) != 1 {
		t.Fatalf("health during breach: %+v", rep)
	}
	for i := 0; i < 100; i++ { // 100 s of samples with no requests
		h.Sample(clock.advance(time.Second))
	}
	if rep := w.Health(); !rep.Healthy || len(rep.Alerts) != 1 {
		t.Fatalf("idle server after a breach: healthy=%v alerts=%d, want healthy with the one alert kept",
			rep.Healthy, len(rep.Alerts))
	}
	breach()
	if rep := w.Health(); rep.Healthy || len(rep.Alerts) != 2 {
		t.Fatalf("breach after an idle window: %+v, want a second alert", rep)
	}
}

// TestWatchRulesJSONRoundTrip: /healthwatch carries the rules in the
// ParseWatchRules grammar, and the decoded string parses back to the rules.
func TestWatchRulesJSONRoundTrip(t *testing.T) {
	in := WatchRules{
		Stall: 30 * time.Second, Regress: 1.5, Straggler: 3.0, Window: 8,
		SLOP99: 250 * time.Millisecond, SLOWindow: 30 * time.Second, HitRate: 0.3,
	}
	data, err := json.Marshal(HealthReport{Rules: in.String()})
	if err != nil {
		t.Fatal(err)
	}
	const wire = `"rules":"stall=30s,regress=1.5,straggler=3,window=8,slo_p99=250ms,slo_window=30s,hitrate=0.3"`
	if !strings.Contains(string(data), wire) {
		t.Fatalf("wire %s does not carry %s", data, wire)
	}
	var rep HealthReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("HealthReport decode: %v", err)
	}
	out, err := ParseWatchRules(rep.Rules)
	if err != nil || out != in {
		t.Fatalf("round trip: %+v (%v) != %+v\nwire: %s", out, err, in, data)
	}
}

func TestParseWatchRulesSLOKeys(t *testing.T) {
	r, err := ParseWatchRules("slo_p99=250ms,hitrate=0.3,slo_window=45s")
	if err != nil {
		t.Fatal(err)
	}
	if r.SLOP99 != 250*time.Millisecond || r.HitRate != 0.3 || r.SLOWindow != 45*time.Second {
		t.Fatalf("parsed %+v", r)
	}
	for _, bad := range []string{"slo_p99=0", "hitrate=1.5", "hitrate=0", "slo_window=-1s", "hitrate=NaN", "hitrate=+Inf"} {
		if _, err := ParseWatchRules(bad); err == nil {
			t.Fatalf("%q parsed without error", bad)
		}
	}
}
