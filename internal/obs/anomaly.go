package obs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The anomaly watchdog evaluates threshold rules over the flight recorder's
// epoch records: a stalled run (no epoch completing within a bound), an
// epoch-time regression against the trailing median, and a straggler index
// above bound. Alerts go two ways — a structured log line and the
// /healthwatch endpoint — so both a human tailing logs and a client polling
// the debug server see the same events.

// Watchdog rule names, used as the Alert.Rule value.
const (
	RuleStall     = "stall"
	RuleRegress   = "regress"
	RuleStraggler = "straggler"
	// RuleSLOP99 and RuleSLOHitRate are the serving SLO burn-rate rules,
	// evaluated against the metric history (EvaluateSLO) rather than the
	// epoch stream.
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
	Stall time.Duration `json:"stall_seconds,omitempty"`
	// Regress fires when an epoch's wall time exceeds Regress times the
	// trailing median (needs at least watchMinHistory prior epochs).
	Regress float64 `json:"regress,omitempty"`
	// Straggler fires when an epoch's straggler index (max/mean per-worker
	// busy time) exceeds this bound on a multi-worker run.
	Straggler float64 `json:"straggler,omitempty"`
	// Window is the trailing-median window in epochs; 0 means
	// defaultWatchWindow.
	Window int `json:"window,omitempty"`
	// SLOP99 is the serving latency SLO target: the promise that at most 1%
	// of requests over the trailing SLOWindow exceed it. EvaluateSLO fires
	// when the measured tail share burns the budget faster than allowed
	// (burn rate > 1, i.e. the windowed p99 is above target).
	SLOP99 time.Duration `json:"slo_p99_seconds,omitempty"`
	// SLOWindow is the burn-rate evaluation window over the metric history;
	// 0 means defaultSLOWindow.
	SLOWindow time.Duration `json:"slo_window_seconds,omitempty"`
	// HitRate fires when the embedding cache's windowed hit rate
	// (delta hits / delta lookups over SLOWindow) drops below this floor.
	HitRate float64 `json:"hitrate,omitempty"`
}

const (
	defaultWatchWindow = 8
	// watchMinHistory is the minimum number of trailing epochs before the
	// regression rule can fire — a median of one or two samples is noise.
	watchMinHistory = 3
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

// MarshalJSON renders Stall in seconds — the struct tag promises
// stall_seconds, and a raw time.Duration would marshal as nanoseconds.
func (r WatchRules) MarshalJSON() ([]byte, error) {
	type wire struct {
		StallSeconds     float64 `json:"stall_seconds,omitempty"`
		Regress          float64 `json:"regress,omitempty"`
		Straggler        float64 `json:"straggler,omitempty"`
		Window           int     `json:"window,omitempty"`
		SLOP99Seconds    float64 `json:"slo_p99_seconds,omitempty"`
		SLOWindowSeconds float64 `json:"slo_window_seconds,omitempty"`
		HitRate          float64 `json:"hitrate,omitempty"`
	}
	return json.Marshal(wire{r.Stall.Seconds(), r.Regress, r.Straggler, r.Window,
		r.SLOP99.Seconds(), r.SLOWindow.Seconds(), r.HitRate})
}

// UnmarshalJSON reads the seconds-valued wire form MarshalJSON writes, so a
// HealthReport round-trips through JSON (nstat decodes /healthwatch).
func (r *WatchRules) UnmarshalJSON(data []byte) error {
	var w struct {
		StallSeconds     float64 `json:"stall_seconds"`
		Regress          float64 `json:"regress"`
		Straggler        float64 `json:"straggler"`
		Window           int     `json:"window"`
		SLOP99Seconds    float64 `json:"slo_p99_seconds"`
		SLOWindowSeconds float64 `json:"slo_window_seconds"`
		HitRate          float64 `json:"hitrate"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = WatchRules{
		Stall:     time.Duration(w.StallSeconds * float64(time.Second)),
		Regress:   w.Regress,
		Straggler: w.Straggler,
		Window:    w.Window,
		SLOP99:    time.Duration(w.SLOP99Seconds * float64(time.Second)),
		SLOWindow: time.Duration(w.SLOWindowSeconds * float64(time.Second)),
		HitRate:   w.HitRate,
	}
	return nil
}

// Enabled reports whether any rule is active.
func (r WatchRules) Enabled() bool {
	return r.Stall > 0 || r.Regress > 0 || r.Straggler > 0 || r.SLOP99 > 0 || r.HitRate > 0
}

// WatchesEpochs reports whether r sets a key of the epoch family (stall,
// regress, straggler, window): rules only a watchdog fed ObserveEpoch — a
// training session's — can evaluate.
func (r WatchRules) WatchesEpochs() bool {
	return r.Stall > 0 || r.Regress > 0 || r.Straggler > 0 || r.Window > 0
}

// WatchesServing reports whether r sets a key of the serving family
// (slo_p99, slo_window, hitrate): rules read from the ns_serve_* series, which
// only a process that serves has.
func (r WatchRules) WatchesServing() bool {
	return r.SLOP99 > 0 || r.SLOWindow > 0 || r.HitRate > 0
}

// window returns the effective trailing-median window.
func (r WatchRules) window() int {
	if r.Window > 0 {
		return r.Window
	}
	return defaultWatchWindow
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
	Healthy bool       `json:"healthy"`
	Rules   WatchRules `json:"rules"`
	// LastEpoch is the most recently observed epoch (-1 before the first).
	LastEpoch int `json:"last_epoch"`
	// SinceLastSeconds is the time since that epoch completed.
	SinceLastSeconds float64 `json:"since_last_seconds"`
	Alerts           []Alert `json:"alerts"`
}

// Watchdog evaluates WatchRules over observed epoch records. All methods are
// safe for concurrent use; a nil *Watchdog is a no-op that reports healthy.
type Watchdog struct {
	rules WatchRules

	mu           sync.Mutex
	log          *slog.Logger
	walls        []float64 // trailing wall times, oldest first, cap window
	alerts       []Alert
	lastEpoch    int
	lastEpochAt  time.Time
	stallAlerted bool
	// sloBreached latches each SLO rule while its breach persists: one alert
	// per episode, re-armed when the window recovers.
	sloBreached map[string]bool
	now         func() time.Time // test hook
}

// NewWatchdog returns a watchdog with the given rules, logging alerts to log
// (nil discards).
func NewWatchdog(rules WatchRules, log *slog.Logger) *Watchdog {
	return &Watchdog{rules: rules, log: log, lastEpoch: -1, now: time.Now}
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

// ObserveEpoch feeds one completed epoch record to the watchdog and returns
// any alerts it fired. Call once per epoch, in order.
func (w *Watchdog) ObserveEpoch(rec EpochRecord) []Alert {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	now := w.now()
	w.lastEpoch, w.lastEpochAt, w.stallAlerted = rec.Epoch, now, false

	var fired []Alert
	if w.rules.Regress > 0 && len(w.walls) >= watchMinHistory {
		med := median(w.walls)
		if med > 0 && rec.WallSeconds > w.rules.Regress*med {
			fired = append(fired, Alert{
				Rule: RuleRegress, Epoch: rec.Epoch, Worker: -1,
				Value: rec.WallSeconds, Bound: w.rules.Regress * med,
				Message: fmt.Sprintf("epoch %d took %.3fs, %.2fx the trailing median %.3fs",
					rec.Epoch, rec.WallSeconds, rec.WallSeconds/med, med),
				At: now,
			})
		}
	}
	if w.rules.Straggler > 0 && rec.Workers > 1 && rec.StragglerIndex > w.rules.Straggler {
		fired = append(fired, Alert{
			Rule: RuleStraggler, Epoch: rec.Epoch, Worker: rec.SlowestWorker,
			Value: rec.StragglerIndex, Bound: w.rules.Straggler,
			Message: fmt.Sprintf("epoch %d straggler index %.2f exceeds %.2f; slowest worker %d",
				rec.Epoch, rec.StragglerIndex, w.rules.Straggler, rec.SlowestWorker),
			At: now,
		})
	}
	// The trailing window excludes the epoch being judged, so one slow epoch
	// cannot mask itself by dragging the median up.
	w.walls = append(w.walls, rec.WallSeconds)
	if max := w.rules.window(); len(w.walls) > max {
		w.walls = w.walls[len(w.walls)-max:]
	}
	w.record(fired)
	log := w.log
	w.mu.Unlock()
	emit(log, fired)
	return fired
}

// Health evaluates the stall rule lazily and returns the current report —
// the /healthwatch payload. Healthy means the run is not stalled, no epoch
// rule has fired within the last Window observed epochs, and no SLO rule's
// breach is still latched. Alerts keeps the history either way.
func (w *Watchdog) Health() HealthReport {
	if w == nil {
		return HealthReport{Healthy: true, LastEpoch: -1}
	}
	return w.healthAt(w.now())
}

func (w *Watchdog) healthAt(now time.Time) HealthReport {
	w.mu.Lock()
	var fired []Alert
	since := time.Duration(0)
	if !w.lastEpochAt.IsZero() {
		since = now.Sub(w.lastEpochAt)
	}
	stalled := w.rules.Stall > 0 && !w.lastEpochAt.IsZero() && since > w.rules.Stall
	if stalled && !w.stallAlerted {
		w.stallAlerted = true // latch: one alert per stall, reset on progress
		fired = append(fired, Alert{
			Rule: RuleStall, Epoch: w.lastEpoch, Worker: -1,
			Value: since.Seconds(), Bound: w.rules.Stall.Seconds(),
			Message: fmt.Sprintf("no epoch completed for %.1fs (bound %.1fs); last epoch %d",
				since.Seconds(), w.rules.Stall.Seconds(), w.lastEpoch),
			At: now,
		})
		w.record(fired)
	}
	rep := HealthReport{
		Healthy:          !stalled && !w.alertActive(),
		Rules:            w.rules,
		LastEpoch:        w.lastEpoch,
		SinceLastSeconds: since.Seconds(),
		// Non-nil so an alert-free report serialises as [], not null.
		Alerts: append(make([]Alert, 0, len(w.alerts)), w.alerts...),
	}
	log := w.log
	w.mu.Unlock()
	emit(log, fired)
	return rep
}

// alertActive reports whether a retained alert still counts against
// health: an SLO alert while its breach latch is set, an epoch-rule alert
// while its epoch is within the trailing window. A stall is judged by the
// caller from the clock. Caller holds w.mu.
func (w *Watchdog) alertActive() bool {
	for _, latched := range w.sloBreached {
		if latched {
			return true
		}
	}
	for _, a := range w.alerts {
		if (a.Rule == RuleRegress || a.Rule == RuleStraggler) && a.Epoch > w.lastEpoch-w.rules.window() {
			return true
		}
	}
	return false
}

// record appends fired alerts to the retained history. Caller holds w.mu.
func (w *Watchdog) record(fired []Alert) {
	for _, a := range fired {
		if len(w.alerts) >= watchAlertKeep {
			copy(w.alerts, w.alerts[1:])
			w.alerts = w.alerts[:len(w.alerts)-1]
		}
		w.alerts = append(w.alerts, a)
	}
}

// EvaluateSLO runs the serving SLO burn-rate rules against the metric
// history and returns any alerts fired. Unlike the instant threshold rules,
// these read windowed deltas: the latency rule computes the share of
// requests above the SLOP99 target from the bucket increase over SLOWindow
// (burn rate = share / 1%, fires above 1), the hit-rate rule the windowed
// delta hit rate against the HitRate floor. Each rule is latched per breach
// episode — it re-arms only after a window that meets the SLO — so a
// sustained breach produces one alert, not one per sample. Intended as the
// history's on-sample hook:
//
//	hist.SetOnSample(func() { watch.EvaluateSLO(hist) })
func (w *Watchdog) EvaluateSLO(h *History) []Alert {
	if w == nil || h == nil {
		return nil
	}
	r := w.rules
	if r.SLOP99 <= 0 && r.HitRate <= 0 {
		return nil
	}
	window := r.SLOWindow
	if window <= 0 {
		window = defaultSLOWindow
	}
	w.mu.Lock()
	now := w.now()
	if w.sloBreached == nil {
		w.sloBreached = make(map[string]bool)
	}
	var fired []Alert
	if r.SLOP99 > 0 {
		if first, last, dt, ok := h.windowEnds(serveLatencyMetric, window); ok {
			delta, sum, cnt := histogramDelta(&first, &last)
			if cnt >= sloMinRequests {
				over := countAboveBuckets(last.Upper, delta, r.SLOP99.Seconds())
				share := over / float64(cnt)
				burn := share / sloTailShare
				if burn > 1 {
					if !w.sloBreached[RuleSLOP99] {
						w.sloBreached[RuleSLOP99] = true
						p99 := bucketQuantile(last.Upper, delta, sum, 0.99)
						fired = append(fired, Alert{
							Rule: RuleSLOP99, Epoch: -1, Worker: -1,
							Value: burn, Bound: 1,
							Message: fmt.Sprintf(
								"serving p99 %.2fms over %.0fs window exceeds SLO %.2fms: %.1f%% of %d requests above target (burn %.1fx)",
								p99*1e3, dt.Seconds(), r.SLOP99.Seconds()*1e3,
								share*100, cnt, burn),
							At: now,
						})
					}
				} else {
					w.sloBreached[RuleSLOP99] = false
				}
			}
		}
	}
	if r.HitRate > 0 {
		hFirst, hLast, _, okH := h.windowEnds(serveCacheHitsMetric, window)
		mFirst, mLast, _, okM := h.windowEnds(serveCacheMissesMetric, window)
		if okH && okM {
			hits := counterIncrease(hFirst.Value, hLast.Value)
			misses := counterIncrease(mFirst.Value, mLast.Value)
			if lookups := hits + misses; lookups >= sloMinLookups {
				rate := hits / lookups
				if rate < r.HitRate {
					if !w.sloBreached[RuleSLOHitRate] {
						w.sloBreached[RuleSLOHitRate] = true
						fired = append(fired, Alert{
							Rule: RuleSLOHitRate, Epoch: -1, Worker: -1,
							Value: rate, Bound: r.HitRate,
							Message: fmt.Sprintf(
								"cache hit rate %.1f%% over %.0fs window below floor %.1f%% (%d lookups)",
								rate*100, window.Seconds(), r.HitRate*100, int64(lookups)),
							At: now,
						})
					}
				} else {
					w.sloBreached[RuleSLOHitRate] = false
				}
			}
		}
	}
	w.record(fired)
	log := w.log
	w.mu.Unlock()
	emit(log, fired)
	return fired
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

// median of a non-empty slice (input not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
