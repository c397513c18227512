package obs

import (
	"cmp"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The anomaly watchdog judges threshold rules over windows that other stores
// already keep: the epoch rules (a stalled run, a sustained epoch-time
// regression against the trailing median, a straggler index above bound)
// over the flight recorder's epoch records, the serving SLO rules over the
// metric history's samples. Each rule is a pure function of its window; the
// watchdog keeps only what it has emitted. Alerts go two ways — a structured
// log line and the /healthwatch endpoint — so both a human tailing logs and
// a client polling the debug server see the same events.

// Watchdog rule names, used as the Alert.Rule value.
const (
	RuleStall     = "stall"
	RuleRegress   = "regress"
	RuleStraggler = "straggler"
	// RuleSLOP99 and RuleSLOHitRate are the serving SLO burn-rate rules,
	// judged over the metric history rather than the epoch records.
	RuleSLOP99     = "slo_p99"
	RuleSLOHitRate = "slo_hitrate"
)

// Serving metric names the SLO rules read from the history. They must match
// what internal/serve registers.
const (
	serveLatencyMetric     = "ns_serve_latency_seconds"
	serveCacheHitsMetric   = "ns_serve_cache_hits_total"
	serveCacheMissesMetric = "ns_serve_cache_misses_total"
)

// WatchRules is the threshold-rule set of a Watchdog. Zero-valued rules are
// disabled, so the zero WatchRules watches nothing.
type WatchRules struct {
	// Stall fires when no epoch completes for longer than this.
	Stall time.Duration
	// Regress fires when an epoch and the regressRun-1 epochs before it all
	// take longer than Regress times the median of the Window epochs before
	// that run (needs at least watchMinHistory of them): a sustained
	// slowdown, not one epoch's scheduler jitter.
	Regress float64
	// Straggler fires when an epoch's straggler index (max/mean per-worker
	// busy time) exceeds this bound on a multi-worker run.
	Straggler float64
	// Window is the trailing-median window in epochs; 0 means
	// defaultWatchWindow.
	Window int
	// SLOP99 is the serving latency SLO target: the promise that at most 1%
	// of requests over the trailing SLOWindow exceed it. The rule is breached
	// when the measured tail share burns the budget faster than allowed
	// (burn rate > 1, i.e. the windowed p99 is above target).
	SLOP99 time.Duration
	// SLOWindow is the burn-rate evaluation window over the metric history;
	// 0 means defaultSLOWindow.
	SLOWindow time.Duration
	// HitRate fires when the embedding cache's windowed hit rate
	// (delta hits / delta lookups over SLOWindow) drops below this floor.
	HitRate float64
}

const (
	defaultWatchWindow = 8
	// watchMinHistory is the minimum number of trailing epochs before the
	// regression rule can fire — a median of one or two samples is noise.
	watchMinHistory = 3
	// regressRun is how many consecutive slow epochs make a regression: on
	// millisecond epochs one slow epoch is a descheduled thread.
	regressRun = 3
	// watchAlertKeep bounds retained alerts for /healthwatch.
	watchAlertKeep = 256
	// defaultSLOWindow is the burn-rate window when SLOWindow is unset.
	defaultSLOWindow = 30 * time.Second
	// sloTailShare is the tolerated tail: "p99 <= target" promises at most
	// 1% of requests above target, so burn rate = measured share / 1%.
	sloTailShare = 0.01
	// sloMinRequests / sloMinLookups gate SLO rules on enough windowed
	// traffic that the share is signal, not one unlucky request.
	sloMinRequests = 20
	sloMinLookups  = 10
)

// DefaultWatchRules is the rule set selected by the spec "default":
// conservative bounds that stay quiet on a healthy run.
func DefaultWatchRules() WatchRules {
	return WatchRules{Stall: 30 * time.Second, Regress: 1.5, Straggler: 3.0, Window: defaultWatchWindow}
}

// String renders r in the ParseWatchRules grammar, keys in a fixed order and
// unset rules left out, so ParseWatchRules(r.String()) == r. The zero rules
// render as "".
func (r WatchRules) String() string {
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var parts []string
	for _, kv := range []struct {
		set      bool
		key, val string
	}{
		{r.Stall > 0, RuleStall, r.Stall.String()},
		{r.Regress > 0, RuleRegress, num(r.Regress)},
		{r.Straggler > 0, RuleStraggler, num(r.Straggler)},
		{r.Window > 0, "window", strconv.Itoa(r.Window)},
		{r.SLOP99 > 0, RuleSLOP99, r.SLOP99.String()},
		{r.SLOWindow > 0, "slo_window", r.SLOWindow.String()},
		{r.HitRate > 0, "hitrate", num(r.HitRate)},
	} {
		if kv.set {
			parts = append(parts, kv.key+"="+kv.val)
		}
	}
	return strings.Join(parts, ",")
}

// WatchesEpochs reports whether r sets a key of the epoch family (stall,
// regress, straggler, window): rules read from a flight recorder's epochs,
// which only a training session has.
func (r WatchRules) WatchesEpochs() bool {
	return r.Stall > 0 || r.Regress > 0 || r.Straggler > 0 || r.Window > 0
}

// WatchesServing reports whether r sets a key of the serving family
// (slo_p99, slo_window, hitrate): rules read from the ns_serve_* series, which
// only a process that serves has.
func (r WatchRules) WatchesServing() bool {
	return r.SLOP99 > 0 || r.SLOWindow > 0 || r.HitRate > 0
}

// ParseWatchRules parses a rule spec of comma-separated key=value pairs,
// mirroring the fault-spec grammar:
//
//	stall=30s,regress=1.5,straggler=3.0,window=8
//	slo_p99=250ms,hitrate=0.3,slo_window=30s
//
// Keys: stall (Go duration > 0), regress (factor > 1), straggler (bound > 1),
// window (epochs >= watchMinHistory), slo_p99 (target latency, Go duration
// > 0), slo_window (burn-rate window, Go duration > 0), hitrate (cache
// hit-rate floor in (0,1]). The literal spec "default" selects
// DefaultWatchRules; the empty spec parses to the disabled zero rules.
// Unknown keys, NaN, ±Inf and out-of-range values are errors.
func ParseWatchRules(spec string) (WatchRules, error) {
	var r WatchRules
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return r, nil
	}
	if spec == "default" {
		return DefaultWatchRules(), nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return r, fmt.Errorf("obs: watch rule %q: want key=value", part)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case RuleStall:
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return r, fmt.Errorf("obs: watch rule stall=%q: want a positive duration like 30s", val)
			}
			r.Stall = d
		case RuleRegress:
			f, ok := parseFinite(val)
			if !ok || f <= 1 {
				return r, fmt.Errorf("obs: watch rule regress=%q: want a factor > 1", val)
			}
			r.Regress = f
		case RuleStraggler:
			f, ok := parseFinite(val)
			if !ok || f <= 1 {
				return r, fmt.Errorf("obs: watch rule straggler=%q: want a bound > 1", val)
			}
			r.Straggler = f
		case "window":
			n, err := strconv.Atoi(val)
			if err != nil || n < watchMinHistory {
				return r, fmt.Errorf("obs: watch rule window=%q: want an integer >= %d", val, watchMinHistory)
			}
			r.Window = n
		case RuleSLOP99:
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return r, fmt.Errorf("obs: watch rule slo_p99=%q: want a positive duration like 250ms", val)
			}
			r.SLOP99 = d
		case "slo_window":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return r, fmt.Errorf("obs: watch rule slo_window=%q: want a positive duration like 30s", val)
			}
			r.SLOWindow = d
		case "hitrate":
			f, ok := parseFinite(val)
			if !ok || f <= 0 || f > 1 {
				return r, fmt.Errorf("obs: watch rule hitrate=%q: want a floor in (0,1]", val)
			}
			r.HitRate = f
		default:
			return r, fmt.Errorf("obs: unknown watch rule %q (want stall, regress, straggler, window, slo_p99, slo_window or hitrate)", key)
		}
	}
	return r, nil
}

// parseFinite parses a float rule value; NaN and ±Inf are not values (a NaN
// bound fails every comparison, so its rule could never fire).
func parseFinite(val string) (float64, bool) {
	f, err := strconv.ParseFloat(val, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}

// Alert is one fired watchdog rule.
type Alert struct {
	Rule  string `json:"rule"`
	Epoch int    `json:"epoch"`
	// Worker is the implicated worker (straggler rule); -1 when the alert
	// concerns the whole run.
	Worker  int       `json:"worker"`
	Value   float64   `json:"value"`
	Bound   float64   `json:"bound"`
	Message string    `json:"message"`
	At      time.Time `json:"at"`
}

// HealthReport is the /healthwatch payload: overall verdict, liveness info
// and the recent alert history.
type HealthReport struct {
	Healthy bool `json:"healthy"`
	// Rules is the rule set in the ParseWatchRules grammar.
	Rules string `json:"rules"`
	// LastEpoch is the newest judged epoch (-1 before the first).
	LastEpoch int `json:"last_epoch"`
	// SinceLastSeconds is the time since that epoch was judged.
	SinceLastSeconds float64 `json:"since_last_seconds"`
	Alerts           []Alert `json:"alerts"`
}

// Watchdog judges WatchRules over a flight recorder's epoch records and a
// metric history's samples. All methods are safe for concurrent use; a nil
// *Watchdog is a no-op that reports healthy.
type Watchdog struct {
	rules WatchRules
	rec   *FlightRecorder
	hist  *History
	now   func() time.Time // test hook

	mu     sync.Mutex
	log    *slog.Logger
	alerts []Alert
	// judged is the newest epoch judged (-1 before the first) and judgedAt
	// when: the cursor that keeps each epoch judged once and clocks a stall.
	judged   int
	judgedAt time.Time
}

// NewWatchdog returns a watchdog judging rules over rec's epoch records and
// hist's samples, logging alerts to log (nil discards). A nil rec or hist
// gives its rules an empty window, so they never fire.
func NewWatchdog(rules WatchRules, rec *FlightRecorder, hist *History, log *slog.Logger) *Watchdog {
	return &Watchdog{rules: rules, rec: rec, hist: hist, log: log, judged: -1, now: time.Now}
}

// SetLogger replaces the alert logger (nil discards).
func (w *Watchdog) SetLogger(log *slog.Logger) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.log = log
	w.mu.Unlock()
}

// Check judges what is new — the epochs the recorder completed since the
// last judged one, the stall clock and the history's newest window — and
// logs, records and returns the alerts that fire. It is the history's
// on-sample hook:
//
//	hist.SetOnSample(func() { watch.Check() })
//
// An alert fires once per episode: an epoch rule once per epoch, a stall
// once per judged epoch, an SLO rule when its newest window is breached and
// the window at the previous sample was not. Calling Check again without
// news fires nothing.
func (w *Watchdog) Check() []Alert { return w.judge(nil) }

// Health runs Check and returns the /healthwatch payload. Healthy means no
// rule fires now: the run is not stalled, no epoch rule fires on any of the
// last Window records, and no SLO rule is breached over the history's
// current window. Alerts keeps the history either way.
func (w *Watchdog) Health() HealthReport {
	rep := HealthReport{Healthy: true, LastEpoch: -1}
	w.judge(&rep)
	return rep
}

// judge evaluates every rule now: it judges the records after the cursor and
// moves the cursor to the newest, logs and records what fires, and, given a
// report, fills it in.
func (w *Watchdog) judge(rep *HealthReport) (fired []Alert) {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	now, r, win := w.now(), w.rules, cmp.Or(w.rules.Window, defaultWatchWindow)
	// Each record judged — the unjudged ones and the last win — needs its
	// own predecessors: the run before it and the win before the run.
	// Epochs are numbered consecutively.
	back := win + regressRun - 1
	n := win + back
	for _, last := range w.rec.Tail(1) {
		n = max(n, back+last.Epoch-w.judged)
	}
	recs := w.rec.Tail(n)
	healthy := true
	for i, rec := range recs {
		for _, rule := range []func(WatchRules, EpochRecord, []EpochRecord) (Alert, bool){regress, straggler} {
			if a, ok := rule(r, rec, recs[max(0, i-back):i]); ok {
				healthy = healthy && i < len(recs)-win
				if rec.Epoch > w.judged {
					a.At = now
					fired = append(fired, a)
				}
			}
		}
	}
	if len(recs) > 0 && recs[len(recs)-1].Epoch > w.judged {
		w.judged, w.judgedAt = recs[len(recs)-1].Epoch, now
	}
	if a, ok := stall(r, w.judged, w.judgedAt, now); ok {
		healthy = false
		if last, ok := w.lastAlert(RuleStall); !ok || last.Epoch != w.judged {
			fired = append(fired, a)
		}
	}
	if r.WatchesServing() {
		cur, prev := w.hist.windows(cmp.Or(r.SLOWindow, defaultSLOWindow))
		for _, rule := range []func(WatchRules, []histSample) (Alert, bool){sloP99, hitRate} {
			a, breached := rule(r, cur)
			if !breached {
				continue
			}
			healthy = false
			// An SLO alert is stamped with its window's end, so judging the
			// same window again finds it in the log.
			a.At = cur[len(cur)-1].at
			_, wasBreached := rule(r, prev)
			if last, ok := w.lastAlert(a.Rule); !wasBreached && !(ok && last.At.Equal(a.At)) {
				fired = append(fired, a)
			}
		}
	}
	w.alerts = append(w.alerts, fired...)
	if extra := len(w.alerts) - watchAlertKeep; extra > 0 {
		w.alerts = w.alerts[extra:]
	}
	if rep != nil {
		*rep = HealthReport{Healthy: healthy, Rules: r.String(), LastEpoch: w.judged,
			// Non-nil so an alert-free report serialises as [], not null.
			Alerts: append(make([]Alert, 0, len(w.alerts)), w.alerts...)}
		if !w.judgedAt.IsZero() {
			rep.SinceLastSeconds = now.Sub(w.judgedAt).Seconds()
		}
	}
	log := w.log
	w.mu.Unlock()
	emit(log, fired)
	return fired
}

// lastAlert returns the newest logged alert of rule. Caller holds w.mu.
func (w *Watchdog) lastAlert(rule string) (Alert, bool) {
	for i := len(w.alerts) - 1; i >= 0; i-- {
		if w.alerts[i].Rule == rule {
			return w.alerts[i], true
		}
	}
	return Alert{}, false
}

// regress judges a run of regressRun epochs ending at rec — the last
// regressRun-1 of prior, then rec — against the median wall time of the
// records before the run; the window excludes the run, so slow epochs cannot
// mask themselves by dragging the median up. Every epoch of the run must
// exceed the bound: an isolated slow epoch is jitter, not a regression.
func regress(r WatchRules, rec EpochRecord, prior []EpochRecord) (Alert, bool) {
	bound := r.Regress
	if bound <= 0 || len(prior) < watchMinHistory+regressRun-1 {
		return Alert{}, false
	}
	base, run := prior[:len(prior)-regressRun+1], prior[len(prior)-regressRun+1:]
	walls := make([]float64, len(base))
	for i, p := range base {
		walls[i] = p.WallSeconds
	}
	med := median(walls)
	if med <= 0 || rec.WallSeconds <= bound*med {
		return Alert{}, false
	}
	for _, p := range run {
		if p.WallSeconds <= bound*med {
			return Alert{}, false
		}
	}
	return Alert{
		Rule: RuleRegress, Epoch: rec.Epoch, Worker: -1,
		Value: rec.WallSeconds, Bound: bound * med,
		Message: fmt.Sprintf("epochs %d-%d each took over %.2fx the trailing median %.3fs (epoch %d: %.3fs)",
			rec.Epoch-regressRun+1, rec.Epoch, bound, med, rec.Epoch, rec.WallSeconds),
	}, true
}

// straggler judges rec's straggler index on a multi-worker run; the records
// before it do not matter.
func straggler(r WatchRules, rec EpochRecord, _ []EpochRecord) (Alert, bool) {
	bound := r.Straggler
	if bound <= 0 || rec.Workers <= 1 || rec.StragglerIndex <= bound {
		return Alert{}, false
	}
	return Alert{
		Rule: RuleStraggler, Epoch: rec.Epoch, Worker: rec.SlowestWorker,
		Value: rec.StragglerIndex, Bound: bound,
		Message: fmt.Sprintf("epoch %d straggler index %.2f exceeds %.2f; slowest worker %d",
			rec.Epoch, rec.StragglerIndex, bound, rec.SlowestWorker),
	}, true
}

// stall judges the time from at, when epoch was judged, to now; before the
// first epoch (zero at) there is nothing to stall against.
func stall(r WatchRules, epoch int, at, now time.Time) (Alert, bool) {
	bound, since := r.Stall, now.Sub(at)
	if bound <= 0 || at.IsZero() || since <= bound {
		return Alert{}, false
	}
	return Alert{
		Rule: RuleStall, Epoch: epoch, Worker: -1, At: now,
		Value: since.Seconds(), Bound: bound.Seconds(),
		Message: fmt.Sprintf("no epoch completed for %.1fs (bound %.1fs); last epoch %d",
			since.Seconds(), bound.Seconds(), epoch),
	}, true
}

// sloP99 judges the latency SLO over one window of samples: the share of the
// window's requests above target, estimated from the bucket increase, burns
// the 1% budget (burn rate = share / 1%) faster than allowed. A window with
// fewer than sloMinRequests requests is not a breach.
func sloP99(r WatchRules, win []histSample) (Alert, bool) {
	target := r.SLOP99
	first, last, dt, ok := seriesEnds(win, serveLatencyMetric)
	if target <= 0 || !ok {
		return Alert{}, false
	}
	delta, sum, cnt := histogramDelta(&first, &last)
	if cnt < sloMinRequests {
		return Alert{}, false
	}
	share := countAboveBuckets(last.Upper, delta, target.Seconds()) / float64(cnt)
	burn := share / sloTailShare
	if burn <= 1 {
		return Alert{}, false
	}
	p99 := bucketQuantile(last.Upper, delta, sum, 0.99)
	return Alert{
		Rule: RuleSLOP99, Epoch: -1, Worker: -1, Value: burn, Bound: 1,
		Message: fmt.Sprintf(
			"serving p99 %.2fms over %.0fs window exceeds SLO %.2fms: %.1f%% of %d requests above target (burn %.1fx)",
			p99*1e3, dt.Seconds(), target.Seconds()*1e3, share*100, cnt, burn),
	}, true
}

// hitRate judges the cache's hit rate over one window of samples (delta hits
// / delta lookups) against floor. A window with fewer than sloMinLookups
// lookups is not a breach.
func hitRate(r WatchRules, win []histSample) (Alert, bool) {
	floor := r.HitRate
	hFirst, hLast, dt, okH := seriesEnds(win, serveCacheHitsMetric)
	mFirst, mLast, _, okM := seriesEnds(win, serveCacheMissesMetric)
	if floor <= 0 || !okH || !okM {
		return Alert{}, false
	}
	hits := counterIncrease(hFirst.Value, hLast.Value)
	lookups := hits + counterIncrease(mFirst.Value, mLast.Value)
	if lookups < sloMinLookups || hits/lookups >= floor {
		return Alert{}, false
	}
	return Alert{
		Rule: RuleSLOHitRate, Epoch: -1, Worker: -1, Value: hits / lookups, Bound: floor,
		Message: fmt.Sprintf("cache hit rate %.1f%% over %.0fs window below floor %.1f%% (%d lookups)",
			hits/lookups*100, dt.Seconds(), floor*100, int64(lookups)),
	}, true
}

// countAboveBuckets estimates how many observations exceed t from per-bucket
// (non-cumulative) counts, interpolating linearly inside the bucket that
// contains t. Observations in the +Inf bucket all count as above any finite
// t at or past the top bound — they are only known to exceed it.
func countAboveBuckets(upper []float64, counts []uint64, t float64) float64 {
	var above float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = upper[i-1]
		}
		switch {
		case i == len(upper) || lower >= t:
			above += float64(c)
		case upper[i] <= t:
			// whole bucket at or below the target
		default:
			above += float64(c) * (upper[i] - t) / (upper[i] - lower)
		}
	}
	return above
}

// emit logs fired alerts outside w.mu (the logger takes its own lock); a
// nil logger discards them.
func emit(log *slog.Logger, fired []Alert) {
	if log == nil {
		return
	}
	for _, a := range fired {
		log.Warn("watchdog alert", "rule", a.Rule, "epoch", a.Epoch,
			"worker", a.Worker, "value", a.Value, "bound", a.Bound, "detail", a.Message)
	}
}

// median of a non-empty slice, which it sorts in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
