// Command nstat is a live terminal dashboard for a NeutronStar serving or
// training process: it polls the /timeline, /stats and /healthwatch
// endpoints and renders QPS, latency quantiles, the per-stage serving
// breakdown, cache effectiveness, batcher behaviour, worker balance and
// active watchdog alerts as a self-refreshing text screen.
//
//	nsserve -dataset cora -model gcn -train 30 -addr :8090 &
//	nsload  -addr localhost:8090 -rate 100 -duration 60s &
//	nstat   -addr localhost:8090
//
// With -once it renders a single frame without clearing the screen — the
// form CI smoke jobs capture:
//
//	nstat -addr localhost:8090 -once
//
// Sections degrade independently: an endpoint the target does not serve
// (e.g. /stats on an nstrain debug address) just drops its section, so the
// same binary watches both serving and training processes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"neutronstar/internal/obs"
	"neutronstar/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:8090", "nsserve or nstrain debug address (host:port)")
		interval = fs.Duration("interval", 2*time.Second, "refresh interval")
		window   = fs.Duration("window", time.Minute, "trailing window the timeline series cover")
		once     = fs.Bool("once", false, "render one frame and exit (no screen clearing)")
		timeout  = fs.Duration("timeout", 5*time.Second, "per-poll HTTP timeout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"interval", *interval}, {"window", *window}, {"timeout", *timeout}} {
		if d.v <= 0 {
			fmt.Fprintf(stderr, "nstat: -%s must be positive, got %s\n", d.name, d.v)
			return 2
		}
	}

	client := &http.Client{Timeout: *timeout}
	base := "http://" + *addr

	if *once {
		frame, err := render(client, base, *window, *interval)
		if err != nil {
			fmt.Fprintf(stderr, "nstat: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, frame)
		return 0
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		frame, err := render(client, base, *window, *interval)
		// Clear screen + home, then draw; a failed poll shows the error in
		// place of the frame and keeps trying (the server may be restarting).
		fmt.Fprint(stdout, "\x1b[2J\x1b[H")
		if err != nil {
			fmt.Fprintf(stdout, "nstat: %v (retrying every %s)\n", err, *interval)
		} else {
			fmt.Fprint(stdout, frame)
		}
		select {
		case <-sig:
			return 0
		case <-tick.C:
		}
	}
}

// render builds one dashboard frame. Each endpoint is optional; only all
// three failing is an error.
func render(client *http.Client, base string, window, step time.Duration) (string, error) {
	tl, errTL := fetchTimeline(client, base, window, step)
	st, errSt := fetchStats(client, base)
	hw, errHW := fetchHealth(client, base)
	if errTL != nil && errSt != nil && errHW != nil {
		return "", fmt.Errorf("no endpoint answered at %s: timeline: %v", base, errTL)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "nstat %s  %s\n", base, time.Now().Format("15:04:05"))
	if st != nil {
		fmt.Fprintf(&b, "model v%d  layers=%d classes=%d vertices=%d  requests=%d errors=%d\n",
			st.ModelVersion, st.Layers, st.Classes, st.NumVertices, st.Requests, st.Errors)
	}
	b.WriteString("\n")
	if tl != nil {
		renderServing(&b, tl)
		renderStages(&b, tl)
		renderCache(&b, tl, st)
		renderBatcher(&b, tl, st)
		renderWorkers(&b, tl)
	} else {
		fmt.Fprintf(&b, "timeline unavailable: %v\n", errTL)
	}
	renderAlerts(&b, hw, errHW)
	return b.String(), nil
}

func fetchTimeline(client *http.Client, base string, window, step time.Duration) (*obs.Timeline, error) {
	var tl obs.Timeline
	if err := fetchJSON(client, fmt.Sprintf("%s/timeline?window=%s&step=%s", base, window, step), &tl); err != nil {
		return nil, err
	}
	return &tl, nil
}

func fetchStats(client *http.Client, base string) (*serve.Stats, error) {
	var st serve.Stats
	if err := fetchJSON(client, base+"/stats", &st); err != nil {
		return nil, err
	}
	return &st, nil
}

func fetchHealth(client *http.Client, base string) (*obs.HealthReport, error) {
	var hw obs.HealthReport
	if err := fetchJSON(client, base+"/healthwatch", &hw); err != nil {
		return nil, err
	}
	return &hw, nil
}

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// series finds one timeline series by metric name, stat and label subset.
func series(tl *obs.Timeline, name, stat string, labels map[string]string) *obs.TimelineSeries {
	for i := range tl.Series {
		s := &tl.Series[i]
		if s.Name != name || s.Stat != stat {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s
		}
	}
	return nil
}

// last returns a series' newest value (ok=false for a missing/empty series).
func last(s *obs.TimelineSeries) (float64, bool) {
	if s == nil || len(s.Points) == 0 {
		return 0, false
	}
	return s.Points[len(s.Points)-1].Value, true
}

func values(s *obs.TimelineSeries) []float64 {
	if s == nil {
		return nil
	}
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Value
	}
	return out
}

func renderServing(b *strings.Builder, tl *obs.Timeline) {
	qpsS := series(tl, "ns_serve_requests_total", "rate", nil)
	p50S := series(tl, "ns_serve_latency_seconds", "p50", nil)
	p99S := series(tl, "ns_serve_latency_seconds", "p99", nil)
	if qpsS == nil && p99S == nil {
		return
	}
	b.WriteString("serving\n")
	if qps, ok := last(qpsS); ok {
		fmt.Fprintf(b, "  qps   %8.1f  %s\n", qps, spark(values(qpsS), 32))
	}
	p50, ok50 := last(p50S)
	p99, ok99 := last(p99S)
	if ok50 || ok99 {
		fmt.Fprintf(b, "  p50 %8.2fms   p99 %8.2fms  %s\n", p50*1e3, p99*1e3, spark(values(p99S), 32))
	}
	if p99S != nil && len(p99S.Exemplars) > 0 {
		ex := p99S.Exemplars[0]
		fmt.Fprintf(b, "  worst trace %s (%.2fms)\n", ex.TraceID, ex.Value*1e3)
	}
	b.WriteString("\n")
}

func renderStages(b *strings.Builder, tl *obs.Timeline) {
	stages := []string{serve.StageQueue, serve.StageCache, serve.StageExtract, serve.StageCompute}
	type row struct {
		name     string
		p50, p99 float64
		ok       bool
	}
	rows := make([]row, 0, len(stages))
	var sum float64
	for _, stage := range stages {
		lbl := map[string]string{"stage": stage}
		p50, ok50 := last(series(tl, "ns_serve_stage_seconds", "p50", lbl))
		p99, _ := last(series(tl, "ns_serve_stage_seconds", "p99", lbl))
		rows = append(rows, row{stage, p50, p99, ok50})
		if ok50 {
			sum += p50
		}
	}
	if sum == 0 {
		return
	}
	b.WriteString("stages (windowed)\n")
	for _, r := range rows {
		if !r.ok {
			continue
		}
		share := r.p50 / sum
		fmt.Fprintf(b, "  %-7s p50 %8.2fms  p99 %8.2fms  %s %3.0f%%\n",
			r.name, r.p50*1e3, r.p99*1e3, bar(share, 16), 100*share)
	}
	b.WriteString("\n")
}

func renderCache(b *strings.Builder, tl *obs.Timeline, st *serve.Stats) {
	hits, okH := last(series(tl, "ns_serve_cache_hits_total", "rate", nil))
	misses, okM := last(series(tl, "ns_serve_cache_misses_total", "rate", nil))
	if !okH && !okM {
		return
	}
	b.WriteString("cache\n")
	if lookups := hits + misses; lookups > 0 {
		fmt.Fprintf(b, "  hit rate %5.1f%%  (%.1f hits/s, %.1f misses/s)\n",
			100*hits/lookups, hits, misses)
	} else {
		b.WriteString("  idle (no lookups in window)\n")
	}
	if bytes, ok := last(series(tl, "ns_serve_cache_bytes", "value", nil)); ok {
		line := fmt.Sprintf("  resident %s", sizeOf(bytes))
		if st != nil && st.Cache.BudgetBytes > 0 {
			line += fmt.Sprintf(" of %s budget (%s)",
				sizeOf(float64(st.Cache.BudgetBytes)), bar(bytes/float64(st.Cache.BudgetBytes), 16))
		}
		b.WriteString(line + "\n")
	}
	b.WriteString("\n")
}

func renderBatcher(b *strings.Builder, tl *obs.Timeline, st *serve.Stats) {
	depth, okD := last(series(tl, "ns_serve_batcher_queue_depth", "value", nil))
	full, _ := last(series(tl, "ns_serve_batcher_flushes_total", "rate", map[string]string{"reason": "max_batch"}))
	timed, _ := last(series(tl, "ns_serve_batcher_flushes_total", "rate", map[string]string{"reason": "max_wait"}))
	if !okD && full == 0 && timed == 0 {
		return
	}
	b.WriteString("batcher\n")
	fmt.Fprintf(b, "  queue depth %3.0f  flushes %.1f/s full, %.1f/s timed\n", depth, full, timed)
	if st != nil && st.Batches > 0 {
		fmt.Fprintf(b, "  lifetime: %d batches, %d batched requests\n", st.Batches, st.BatchedRequests)
	}
	b.WriteString("\n")
}

// renderWorkers summarises pool balance: each worker's busy-seconds counter
// rate is its utilisation; the straggler index (max/mean) says whether one
// worker is carrying the pool.
func renderWorkers(b *strings.Builder, tl *obs.Timeline) {
	pools := map[string][]float64{}
	for i := range tl.Series {
		s := &tl.Series[i]
		if s.Name != "ns_serve_worker_busy_seconds_total" || s.Stat != "rate" {
			continue
		}
		if v, ok := last(s); ok {
			pools[s.Labels["pool"]] = append(pools[s.Labels["pool"]], v)
		}
	}
	if len(pools) == 0 {
		return
	}
	b.WriteString("workers\n")
	names := make([]string, 0, len(pools))
	for name := range pools {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		utils := pools[name]
		var sum, max float64
		for _, u := range utils {
			sum += u
			if u > max {
				max = u
			}
		}
		mean := sum / float64(len(utils))
		straggler := 1.0
		if mean > 0 {
			straggler = max / mean
		}
		fmt.Fprintf(b, "  %-7s %d workers  util mean %5.1f%% max %5.1f%%  straggler %.2f\n",
			name, len(utils), 100*mean, 100*max, straggler)
	}
	b.WriteString("\n")
}

func renderAlerts(b *strings.Builder, hw *obs.HealthReport, err error) {
	if hw == nil {
		if err != nil {
			fmt.Fprintf(b, "healthwatch unavailable: %v\n", err)
		}
		return
	}
	if hw.Healthy {
		b.WriteString("health ok")
		if hw.LastEpoch >= 0 {
			fmt.Fprintf(b, "  (epoch %d, %.0fs ago)", hw.LastEpoch, hw.SinceLastSeconds)
		}
		b.WriteString("\n")
		return
	}
	fmt.Fprintf(b, "ALERTS (%d total)\n", len(hw.Alerts))
	from := len(hw.Alerts) - 3
	if from < 0 {
		from = 0
	}
	for _, a := range hw.Alerts[from:] {
		fmt.Fprintf(b, "  [%s] %s\n", a.Rule, a.Message)
	}
}

// spark renders xs as a unicode sparkline of at most width cells, newest
// last, scaled to the window maximum.
func spark(xs []float64, width int) string {
	if len(xs) == 0 {
		return ""
	}
	if len(xs) > width {
		xs = xs[len(xs)-width:]
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var max float64
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if max <= 0 || math.IsNaN(max) || math.IsInf(max, 0) {
		return strings.Repeat(string(levels[0]), len(xs))
	}
	var b strings.Builder
	for _, x := range xs {
		i := int(x / max * float64(len(levels)-1))
		if i < 0 {
			i = 0
		}
		if i >= len(levels) {
			i = len(levels) - 1
		}
		b.WriteRune(levels[i])
	}
	return b.String()
}

// bar renders a [0,1] fraction as a fixed-width block bar.
func bar(frac float64, width int) string {
	if math.IsNaN(frac) || frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fill := int(frac*float64(width) + 0.5)
	return strings.Repeat("█", fill) + strings.Repeat("░", width-fill)
}

// sizeOf renders a byte count human-readably.
func sizeOf(bytes float64) string {
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1fMiB", bytes/(1<<20))
	case bytes >= 1<<10:
		return fmt.Sprintf("%.1fKiB", bytes/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", bytes)
	}
}
