package obs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseWatchRules(t *testing.T) {
	cases := []struct {
		spec string
		want WatchRules
	}{
		{"", WatchRules{}},
		{"default", DefaultWatchRules()},
		{"stall=30s,regress=1.5,straggler=3.0,window=8",
			WatchRules{Stall: 30 * time.Second, Regress: 1.5, Straggler: 3.0, Window: 8}},
		{" stall=500ms , window=4 ", WatchRules{Stall: 500 * time.Millisecond, Window: 4}},
		{"regress=2", WatchRules{Regress: 2}},
		{"straggler=1.1,,", WatchRules{Straggler: 1.1}},
	}
	for _, tc := range cases {
		got, err := ParseWatchRules(tc.spec)
		if err != nil {
			t.Fatalf("ParseWatchRules(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseWatchRules(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

func TestParseWatchRulesErrors(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string
	}{
		{"bogus", "key=value"},
		{"warp=9", "unknown watch rule"},
		{"stall=fast", "positive duration"},
		{"stall=-1s", "positive duration"},
		{"stall=0s", "positive duration"},
		{"regress=1", "factor > 1"},
		{"regress=0.5", "factor > 1"},
		{"regress=nope", "factor > 1"},
		{"straggler=1", "bound > 1"},
		{"straggler=x", "bound > 1"},
		{"window=2", ">= 3"},
		{"window=abc", ">= 3"},
		{"stall=30s,regress=0", "factor > 1"}, // later clause still validated
		{"regress=NaN", "factor > 1"},
		{"regress=+Inf", "factor > 1"},
		{"straggler=NaN", "bound > 1"},
		{"straggler=Inf", "bound > 1"},
		{"hitrate=NaN", "floor in (0,1]"},
		{"hitrate=-Inf", "floor in (0,1]"},
	}
	for _, tc := range cases {
		_, err := ParseWatchRules(tc.spec)
		if err == nil {
			t.Fatalf("ParseWatchRules(%q) accepted a malformed spec", tc.spec)
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("ParseWatchRules(%q) error %q does not mention %q", tc.spec, err, tc.wantErr)
		}
	}
}

// TestWatchRuleFamilies pins which keys each family predicate sees: the
// CLIs reject a spec whose family they cannot evaluate.
func TestWatchRuleFamilies(t *testing.T) {
	cases := []struct {
		spec            string
		epochs, serving bool
	}{
		{"", false, false},
		{"default", true, false},
		{"stall=30s", true, false},
		{"regress=1.5", true, false},
		{"straggler=2", true, false},
		{"window=4", true, false},
		{"slo_p99=250ms", false, true},
		{"slo_window=30s", false, true},
		{"hitrate=0.3", false, true},
		{"regress=1.5,hitrate=0.3", true, true},
	}
	for _, tc := range cases {
		r, err := ParseWatchRules(tc.spec)
		if err != nil {
			t.Fatalf("ParseWatchRules(%q): %v", tc.spec, err)
		}
		if r.WatchesEpochs() != tc.epochs || r.WatchesServing() != tc.serving {
			t.Fatalf("%q: WatchesEpochs=%v WatchesServing=%v, want %v %v",
				tc.spec, r.WatchesEpochs(), r.WatchesServing(), tc.epochs, tc.serving)
		}
	}
}

// feed appends literal records to the watchdog's flight recorder, as
// EndEpoch does, and runs Check, as the session's epoch-barrier sample does.
func feed(w *Watchdog, recs ...EpochRecord) []Alert {
	w.rec.mu.Lock()
	w.rec.recs = append(w.rec.recs, recs...)
	w.rec.mu.Unlock()
	return w.Check()
}

// TestWatchRuleFunctions calls each epoch rule on literal records: it is a
// function of its window alone.
func TestWatchRuleFunctions(t *testing.T) {
	rules := WatchRules{Stall: time.Second, Regress: 1.5, Straggler: 2}
	steady := []EpochRecord{{WallSeconds: 0.1}, {WallSeconds: 0.1}, {WallSeconds: 0.3}, {WallSeconds: 0.2}, {WallSeconds: 0.2}}
	if _, ok := regress(rules, EpochRecord{WallSeconds: 0.2}, steady[1:]); ok {
		t.Fatal("regress fired on two epochs before the run")
	}
	if a, ok := regress(rules, EpochRecord{Epoch: 6, WallSeconds: 0.2}, steady); !ok || a.Epoch != 6 || math.Abs(a.Bound-0.15) > 1e-12 {
		t.Fatalf("regress against median 0.1: %+v %v", a, ok)
	}
	spike := append(append([]EpochRecord(nil), steady[:4]...), EpochRecord{WallSeconds: 0.1})
	if _, ok := regress(rules, EpochRecord{WallSeconds: 0.2}, spike); ok {
		t.Fatal("regress fired on a run broken by a steady epoch")
	}
	if _, ok := regress(WatchRules{}, EpochRecord{WallSeconds: 9}, steady); ok {
		t.Fatal("disabled regress fired")
	}
	if _, ok := straggler(rules, EpochRecord{Workers: 1, StragglerIndex: 9}, nil); ok {
		t.Fatal("straggler fired on one worker")
	}
	if a, ok := straggler(rules, EpochRecord{Workers: 4, StragglerIndex: 2.6, SlowestWorker: 3}, nil); !ok || a.Worker != 3 {
		t.Fatalf("straggler: %+v %v", a, ok)
	}
	at := time.Unix(1700000000, 0)
	if _, ok := stall(rules, -1, time.Time{}, at); ok {
		t.Fatal("stall fired before the first epoch")
	}
	if a, ok := stall(rules, 7, at, at.Add(2*time.Second)); !ok || a.Epoch != 7 {
		t.Fatalf("stall: %+v %v", a, ok)
	}
}

func TestWatchdogRegressAgainstTrailingMedian(t *testing.T) {
	w := NewWatchdog(WatchRules{Regress: 1.5, Window: 8}, NewFlightRecorder(), nil, nil)
	// Three steady epochs build the history; none may alert (no history yet
	// for the first, and steady walls after).
	for e := 1; e <= 3; e++ {
		if fired := feed(w, EpochRecord{Epoch: e, WallSeconds: 0.100}); len(fired) != 0 {
			t.Fatalf("epoch %d fired %v with insufficient history", e, fired)
		}
	}
	// 0.120s vs median 0.100s is 1.2x: below the 1.5x bound.
	if fired := feed(w, EpochRecord{Epoch: 4, WallSeconds: 0.120}); len(fired) != 0 {
		t.Fatalf("epoch 4 fired %v below the bound", fired)
	}
	// 0.200s vs trailing median ~0.100s crosses 1.5x, but one or two slow
	// epochs are not yet a regression; the third in a row is. The slow
	// epochs must not be in the window they are judged against.
	for e := 5; e <= 6; e++ {
		if fired := feed(w, EpochRecord{Epoch: e, WallSeconds: 0.200}); len(fired) != 0 {
			t.Fatalf("epoch %d fired %v, the %d-th slow epoch in a row", e, fired, e-4)
		}
	}
	fired := feed(w, EpochRecord{Epoch: 7, WallSeconds: 0.200})
	if len(fired) != 1 || fired[0].Rule != RuleRegress || fired[0].Epoch != 7 || fired[0].Worker != -1 {
		t.Fatalf("epoch 7: fired = %+v, want one run-wide regress alert", fired)
	}
	if rep := w.Health(); rep.Healthy || len(rep.Alerts) != 1 {
		t.Fatalf("health after regress: %+v", rep)
	}
}

// TestWatchdogRegressIgnoresJitter feeds millisecond epochs the way a small
// graph trains: an isolated 2–3x spike every ~25 epochs (a descheduled
// thread) fires nothing, and a sustained step to 2x fires within three
// epochs of the step.
func TestWatchdogRegressIgnoresJitter(t *testing.T) {
	w := NewWatchdog(DefaultWatchRules(), NewFlightRecorder(), nil, nil)
	rng := uint64(7)
	next := 20
	for e := 1; e <= 500; e++ {
		wall := 0.001
		if e == next {
			rng = rng*6364136223846793005 + 1442695040888963407
			wall *= 2 + float64(rng>>40)/float64(1<<24) // 2x to 3x
			next += 20 + int(rng>>59)                   // every 20 to 51 epochs
		}
		if fired := feed(w, EpochRecord{Epoch: e, WallSeconds: wall}); len(fired) != 0 {
			t.Fatalf("epoch %d (%.4fs) fired %+v on an isolated spike", e, wall, fired)
		}
	}
	if rep := w.Health(); !rep.Healthy {
		t.Fatalf("jittery run reads unhealthy: %+v", rep)
	}
	for e := 501; e <= 503; e++ {
		fired := feed(w, EpochRecord{Epoch: e, WallSeconds: 0.002})
		if e < 503 && len(fired) != 0 {
			t.Fatalf("epoch %d fired %+v before three slow epochs", e, fired)
		}
		if e == 503 && (len(fired) != 1 || fired[0].Rule != RuleRegress) {
			t.Fatalf("a sustained 2x step fired %+v by its third epoch, want one regress alert", fired)
		}
	}
}

// TestWatchdogHealthyRecoversAfterWindow checks that health is judged now: a
// regress alert counts until Window more epochs have passed, an SLO alert
// until its window recovers. The alert history is kept either way.
func TestWatchdogHealthyRecoversAfterWindow(t *testing.T) {
	t.Run("regress", func(t *testing.T) {
		w := NewWatchdog(WatchRules{Regress: 1.5, Window: 8}, NewFlightRecorder(), nil, nil)
		for e := 1; e <= 4; e++ {
			feed(w, EpochRecord{Epoch: e, WallSeconds: 0.100})
		}
		feed(w, EpochRecord{Epoch: 5, WallSeconds: 0.200}, EpochRecord{Epoch: 6, WallSeconds: 0.200})
		if fired := feed(w, EpochRecord{Epoch: 7, WallSeconds: 0.200}); len(fired) != 1 {
			t.Fatalf("epoch 7 fired %+v, want one regress alert", fired)
		}
		for e := 8; e <= 40; e++ {
			feed(w, EpochRecord{Epoch: e, WallSeconds: 0.100})
			rep := w.Health()
			if want := e >= 7+8; rep.Healthy != want {
				t.Fatalf("epoch %d: healthy = %v, want %v", e, rep.Healthy, want)
			}
			if len(rep.Alerts) != 1 {
				t.Fatalf("epoch %d: alert history %+v, want the one regress alert", e, rep.Alerts)
			}
		}
	})
	t.Run("slo", func(t *testing.T) {
		reg := NewRegistry()
		lat := reg.Histogram(serveLatencyMetric, "t", ExpBuckets(1e-5, 2.5, 16))
		clock := newHistClock()
		h := NewHistory(reg, 0)
		h.now = clock.now
		w := NewWatchdog(WatchRules{SLOP99: 250 * time.Millisecond, SLOWindow: 30 * time.Second}, nil, h, nil)
		w.now = clock.now
		observe := func(n int, sec float64) {
			for i := 0; i < n; i++ {
				lat.Observe(sec)
			}
		}
		h.Sample(clock.now())
		observe(50, 0.5) // burn
		h.Sample(clock.advance(5 * time.Second))
		if alerts := w.Check(); len(alerts) != 1 {
			t.Fatalf("breach fired %+v, want one alert", alerts)
		}
		if rep := w.Health(); rep.Healthy {
			t.Fatalf("health during breach: %+v", rep)
		}
		clock.advance(time.Minute) // recover: the window holds only fast traffic
		h.Sample(clock.now())
		observe(100, 0.001)
		h.Sample(clock.advance(5 * time.Second))
		if alerts := w.Check(); len(alerts) != 0 {
			t.Fatalf("recovered window fired %+v", alerts)
		}
		if rep := w.Health(); !rep.Healthy || len(rep.Alerts) != 1 {
			t.Fatalf("health after recovery: %+v, want healthy with the one alert kept", rep)
		}
	})
}

func TestWatchdogStragglerNamesSlowestWorker(t *testing.T) {
	w := NewWatchdog(WatchRules{Straggler: 2.0}, NewFlightRecorder(), nil, nil)
	// Single-worker runs cannot straggle.
	if fired := feed(w, EpochRecord{Epoch: 1, Workers: 1, StragglerIndex: 9, SlowestWorker: 0}); len(fired) != 0 {
		t.Fatalf("single-worker run fired %v", fired)
	}
	if fired := feed(w, EpochRecord{Epoch: 2, Workers: 4, StragglerIndex: 1.3, SlowestWorker: 2}); len(fired) != 0 {
		t.Fatalf("balanced epoch fired %v", fired)
	}
	fired := feed(w, EpochRecord{Epoch: 3, Workers: 4, StragglerIndex: 2.6, SlowestWorker: 2})
	if len(fired) != 1 || fired[0].Rule != RuleStraggler || fired[0].Worker != 2 {
		t.Fatalf("fired = %+v, want one straggler alert naming worker 2", fired)
	}
	if !strings.Contains(fired[0].Message, "worker 2") {
		t.Fatalf("alert message %q does not name the worker", fired[0].Message)
	}
}

func TestWatchdogStallLatchesAndResets(t *testing.T) {
	start := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	clock := start.Add(time.Hour)
	w := NewWatchdog(WatchRules{Stall: 10 * time.Second}, NewFlightRecorder(), nil, nil)
	w.now = func() time.Time { return clock }
	healthAt := func(d time.Duration) HealthReport {
		clock = start.Add(d)
		return w.Health()
	}

	// Before any epoch there is nothing to stall against.
	if rep := w.Health(); !rep.Healthy {
		t.Fatalf("pre-first-epoch health: %+v", rep)
	}
	clock = start
	feed(w, EpochRecord{Epoch: 1, WallSeconds: 0.1})
	if rep := healthAt(5 * time.Second); !rep.Healthy {
		t.Fatalf("5s after an epoch: %+v", rep)
	}
	rep := healthAt(15 * time.Second)
	if rep.Healthy || len(rep.Alerts) != 1 || rep.Alerts[0].Rule != RuleStall {
		t.Fatalf("15s stall: %+v", rep)
	}
	// One alert per stall: polling again while still stalled must not
	// multiply alerts.
	rep = healthAt(20 * time.Second)
	if len(rep.Alerts) != 1 {
		t.Fatalf("stall alert repeated: %+v", rep.Alerts)
	}
	// Progress ends the stall; a second stall fires a second alert.
	clock = start.Add(30 * time.Second)
	feed(w, EpochRecord{Epoch: 2, WallSeconds: 0.1})
	rep = healthAt(41 * time.Second)
	if len(rep.Alerts) != 2 || rep.Alerts[1].Rule != RuleStall || rep.Alerts[1].Epoch != 2 {
		t.Fatalf("second stall after progress: %+v", rep.Alerts)
	}
}

func TestWatchdogNilIsNoOp(t *testing.T) {
	var w *Watchdog
	if fired := w.Check(); fired != nil {
		t.Fatal("nil watchdog fired")
	}
	if rep := w.Health(); !rep.Healthy || rep.LastEpoch != -1 || rep.Rules != "" {
		t.Fatalf("nil watchdog health: %+v", rep)
	}
	w.SetLogger(nil)
}

// FuzzParseWatchRules feeds arbitrary specs to the parser: it must never
// panic, every spec it accepts must set each rule either not at all (zero)
// or to a finite value inside its documented range, and the rules must
// render back into a spec that parses to the same rules.
func FuzzParseWatchRules(f *testing.F) {
	for _, seed := range []string{
		"", "default",
		"stall=30s,regress=1.5,straggler=3.0,window=8",
		"slo_p99=250ms,hitrate=0.3,slo_window=30s",
		"regress=NaN", "straggler=NaN", "hitrate=NaN",
		"regress=+Inf", "straggler=Inf", "hitrate=-Inf",
		"regress=1", "window=2", "stall=0s", "slo_window=-1s",
		"stall", "=", ",,", "warp=9", "regress=1e309",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseWatchRules(spec)
		if err != nil {
			return
		}
		factor := func(v float64) bool { return v == 0 || (v > 1 && !math.IsInf(v, 1)) }
		if r.Stall < 0 || r.SLOP99 < 0 || r.SLOWindow < 0 ||
			!factor(r.Regress) || !factor(r.Straggler) ||
			(r.Window != 0 && r.Window < watchMinHistory) ||
			!(r.HitRate == 0 || (r.HitRate > 0 && r.HitRate <= 1)) {
			t.Fatalf("%q accepted as %+v", spec, r)
		}
		if back, err := ParseWatchRules(r.String()); err != nil || back != r {
			t.Fatalf("%q: %+v renders as %q, which parses to %+v (%v)", spec, r, r.String(), back, err)
		}
	})
}
