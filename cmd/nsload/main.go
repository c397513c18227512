// Command nsload drives a seeded request mix against a running nsserve
// instance and reports latency percentiles, throughput and cache
// effectiveness. It can run closed-loop (fixed concurrency, the next request
// fires when one completes) or open-loop (fixed arrival rate, independent of
// completions).
//
//	nsserve -dataset cora -model gcn -train 30 -addr :8090 &
//	nsload -addr localhost:8090 -requests 500 -concurrency 8
//	nsload -addr localhost:8090 -rate 200 -duration 5s
//
// For CI smoke jobs, fail on absolute floors:
//
//	nsload -addr localhost:8090 -requests 400 -seed 7 \
//	  -min-qps 20 -max-p99-ms 500 -min-cache-hits 1
//
// The request mix is deterministic in -seed: request i derives its own RNG
// from seed and i, so two runs with the same flags issue byte-identical
// request bodies in some order.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neutronstar/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "localhost:8090", "nsserve address (host:port)")
		requests    = fs.Int("requests", 400, "total requests to send")
		duration    = fs.Duration("duration", 0, "stop after this long even if -requests remain (0 = no limit)")
		concurrency = fs.Int("concurrency", 4, "closed-loop worker count")
		rate        = fs.Float64("rate", 0, "open-loop arrival rate in requests/sec (0 = closed loop)")
		vertsPerReq = fs.Int("verts", 4, "queried vertices per request")
		mixSpec     = fs.String("mix", "predict=0.8,embed=0.1,linkscore=0.1", "request mix as endpoint=weight pairs")
		fanoutSpec  = fs.String("fanouts", "", "comma-separated per-layer fanouts for sampled queries (empty = exact)")
		seed        = fs.Uint64("seed", 1, "seed pinning the request mix")
		timeout     = fs.Duration("timeout", 10*time.Second, "per-request HTTP timeout")

		minQPS       = fs.Float64("min-qps", 0, "exit 1 if measured QPS falls below this")
		maxP99Ms     = fs.Float64("max-p99-ms", 0, "exit 1 if p99 latency exceeds this many ms (0 = no gate)")
		minCacheHits = fs.Int64("min-cache-hits", -1, "exit 1 if the server's cache hit delta is below this (-1 = no gate)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "nsload: %v\n", err)
		return 1
	}

	mix, err := parseMix(*mixSpec)
	if err != nil {
		return fail(err)
	}
	fanouts, err := parseFanouts(*fanoutSpec)
	if err != nil {
		return fail(err)
	}
	if *requests <= 0 {
		return fail(fmt.Errorf("-requests must be positive, got %d", *requests))
	}
	if *vertsPerReq <= 0 {
		return fail(fmt.Errorf("-verts must be positive, got %d", *vertsPerReq))
	}
	// NaN fails every comparison: it would turn a gate off, or the open
	// loop into a closed one, without a word. An infinite gate could never
	// pass or never fire; an infinite rate is too high, below.
	for _, f := range []struct {
		name string
		v    float64
	}{{"-rate", *rate}, {"-min-qps", *minQPS}, {"-max-p99-ms", *maxP99Ms}} {
		if !(f.v >= 0) {
			return fail(fmt.Errorf("%s must be non-negative, got %g", f.name, f.v))
		}
		if f.name != "-rate" && math.IsInf(f.v, 1) {
			return fail(fmt.Errorf("%s must be finite, got %g", f.name, f.v))
		}
	}
	// interval is the open-loop send period; 0 means closed loop.
	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			return fail(fmt.Errorf("-rate %g is too high: the send interval rounds to 0 ns (max 1e9)", *rate))
		}
	}
	if interval == 0 && *concurrency <= 0 {
		return fail(fmt.Errorf("-concurrency must be positive, got %d", *concurrency))
	}

	base := "http://" + *addr
	client := &http.Client{Timeout: *timeout}
	before, err := fetchStats(client, base)
	if err != nil {
		return fail(fmt.Errorf("is nsserve running at %s? %w", *addr, err))
	}
	if fanouts != nil && len(fanouts) != before.Layers {
		return fail(fmt.Errorf("-fanouts has %d entries but the served model has %d layers", len(fanouts), before.Layers))
	}

	gen := &reqGen{
		n:       before.NumVertices,
		verts:   *vertsPerReq,
		mix:     mix,
		fanouts: fanouts,
		seed:    *seed,
	}
	var lats []float64 // milliseconds, successes only
	var errs int64
	stageMS := make(map[string][]float64) // per-stage ms from Server-Timing
	var mu sync.Mutex
	record := func(ms float64, ok bool, timing map[string]time.Duration) {
		mu.Lock()
		if ok {
			lats = append(lats, ms)
			for stage, d := range timing {
				stageMS[stage] = append(stageMS[stage], float64(d)/float64(time.Millisecond))
			}
		} else {
			errs++
		}
		mu.Unlock()
	}
	shoot := func(i int) {
		path, body := gen.request(i)
		t0 := time.Now()
		hdr, ok := post(client, base+path, body)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		var timing map[string]time.Duration
		if ok {
			if st := hdr.Get("Server-Timing"); st != "" {
				timing = serve.ParseServerTiming(st)
			}
		}
		record(ms, ok, timing)
	}

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	expired := func() bool { return !deadline.IsZero() && time.Now().After(deadline) }

	mode := "closed"
	start := time.Now()
	if interval > 0 {
		mode = "open"
		var wg sync.WaitGroup
		tick := time.NewTicker(interval)
		for i := 0; i < *requests && !expired(); i++ {
			<-tick.C
			wg.Add(1)
			go func(i int) { defer wg.Done(); shoot(i) }(i)
		}
		tick.Stop()
		wg.Wait()
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(*requests) || expired() {
						return
					}
					shoot(int(i))
				}
			}()
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	after, err := fetchStats(client, base)
	if err != nil {
		return fail(err)
	}
	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses

	sent := int64(len(lats)) + errs
	if len(lats) == 0 {
		return fail(fmt.Errorf("all %d requests failed", sent))
	}
	qps := float64(len(lats)) / elapsed.Seconds()
	lat := summarize(lats)
	stages, coverage := stageSummary(stageMS, lat.mean)

	fmt.Fprintf(stdout, "mode=%s requests=%d errors=%d elapsed=%.2fs qps=%.1f\n",
		mode, sent, errs, elapsed.Seconds(), qps)
	fmt.Fprintf(stdout, "latency_ms p50=%.3f p99=%.3f mean=%.3f\n", lat.p50, lat.p99, lat.mean)
	for _, stage := range []string{serve.StageQueue, serve.StageCache, serve.StageExtract, serve.StageCompute} {
		if q, ok := stages[stage]; ok {
			fmt.Fprintf(stdout, "stage %-7s p50=%.3f p99=%.3f mean=%.3f ms\n", stage, q.p50, q.p99, q.mean)
		}
	}
	if coverage > 0 {
		fmt.Fprintf(stdout, "stage sum covers %.0f%% of server pipeline latency", 100*coverage)
		if t, ok := stages[serve.StageTotal]; ok && lat.mean > 0 {
			fmt.Fprintf(stdout, " (pipeline is %.0f%% of client latency; rest is HTTP)", 100*t.mean/lat.mean)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "cache hits=%d misses=%d (delta over this window)\n", hits, misses)

	// Absolute gates for CI smoke jobs: these catch a broken serving path
	// (zero throughput, pathological tail, cold cache) without needing a
	// baseline to compare against.
	bad := false
	if *minQPS > 0 && qps < *minQPS {
		fmt.Fprintf(stderr, "nsload: GATE qps %.1f < min %.1f\n", qps, *minQPS)
		bad = true
	}
	if *maxP99Ms > 0 && lat.p99 > *maxP99Ms {
		fmt.Fprintf(stderr, "nsload: GATE p99 %.3fms > max %.3fms\n", lat.p99, *maxP99Ms)
		bad = true
	}
	if *minCacheHits >= 0 && hits < *minCacheHits {
		fmt.Fprintf(stderr, "nsload: GATE cache hits %d < min %d\n", hits, *minCacheHits)
		bad = true
	}
	if errs > 0 {
		fmt.Fprintf(stderr, "nsload: GATE %d request errors\n", errs)
		bad = true
	}
	if bad {
		return 1
	}
	return 0
}

// reqGen builds the i-th request of the deterministic mix. Each request
// derives a private RNG from (seed, i) so the mix does not depend on the
// interleaving of concurrent workers.
type reqGen struct {
	n       int
	verts   int
	mix     []mixEntry
	fanouts []int
	seed    uint64
}

type mixEntry struct {
	endpoint string
	cum      float64 // cumulative weight in (0,1]
}

func (g *reqGen) request(i int) (path string, body []byte) {
	rng := rand.New(rand.NewSource(int64(g.seed ^ uint64(i)*0x9E3779B97F4A7C15)))
	endpoint := g.mix[len(g.mix)-1].endpoint
	p := rng.Float64()
	for _, m := range g.mix {
		if p < m.cum {
			endpoint = m.endpoint
			break
		}
	}
	pick := func() int32 { return int32(rng.Intn(g.n)) }
	switch endpoint {
	case "linkscore":
		npairs := (g.verts + 1) / 2
		req := struct {
			Pairs   [][2]int32 `json:"pairs"`
			Fanouts []int      `json:"fanouts,omitempty"`
			Seed    uint64     `json:"seed,omitempty"`
		}{Fanouts: g.fanouts, Seed: g.seed + uint64(i)}
		for k := 0; k < npairs; k++ {
			req.Pairs = append(req.Pairs, [2]int32{pick(), pick()})
		}
		body, _ = json.Marshal(req)
	default: // predict, embed
		req := struct {
			Verts   []int32 `json:"vertices"`
			Fanouts []int   `json:"fanouts,omitempty"`
			Seed    uint64  `json:"seed,omitempty"`
		}{Fanouts: g.fanouts, Seed: g.seed + uint64(i)}
		seen := make(map[int32]bool, g.verts)
		for len(req.Verts) < g.verts {
			v := pick()
			if !seen[v] {
				seen[v] = true
				req.Verts = append(req.Verts, v)
			}
			if len(seen) >= g.n {
				break
			}
		}
		body, _ = json.Marshal(req)
	}
	return "/" + endpoint, body
}

func parseMix(spec string) ([]mixEntry, error) {
	valid := map[string]bool{"predict": true, "embed": true, "linkscore": true}
	var entries []mixEntry
	total := 0.0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-mix: %q is not endpoint=weight", part)
		}
		if !valid[k] {
			return nil, fmt.Errorf("-mix: unknown endpoint %q (want predict, embed, linkscore)", k)
		}
		w, err := strconv.ParseFloat(v, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("-mix: bad weight %q for %s", v, k)
		}
		if w == 0 {
			continue
		}
		total += w
		entries = append(entries, mixEntry{endpoint: k, cum: total})
	}
	if len(entries) == 0 || total <= 0 {
		return nil, fmt.Errorf("-mix: no endpoints with positive weight in %q", spec)
	}
	for i := range entries {
		entries[i].cum /= total
	}
	entries[len(entries)-1].cum = 1
	return entries, nil
}

func parseFanouts(spec string) ([]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int
	for _, s := range strings.Split(spec, ",") {
		f, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("-fanouts: bad entry %q", s)
		}
		out = append(out, f)
	}
	return out, nil
}

func fetchStats(client *http.Client, base string) (*serve.Stats, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/stats returned %s", resp.Status)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decoding /stats: %w", err)
	}
	if st.NumVertices <= 0 {
		return nil, fmt.Errorf("/stats reports %d vertices", st.NumVertices)
	}
	return &st, nil
}

func post(client *http.Client, url string, body []byte) (http.Header, bool) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.Header, resp.StatusCode == http.StatusOK
}

// quantiles summarises one latency sample in milliseconds.
type quantiles struct{ p50, p99, mean float64 }

// summarize sorts xs in place and returns its quantiles.
func summarize(xs []float64) quantiles {
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return quantiles{p50: percentile(xs, 0.50), p99: percentile(xs, 0.99), mean: sum / float64(len(xs))}
}

// stageSummary folds the per-request Server-Timing samples into per-stage
// quantiles and computes the coverage ratio: the sum of the four additive
// stage means over the server's mean end-to-end pipeline latency (the
// "total" header entry; the stages partition it, so coverage should sit at
// ~1.0). When no total was reported the mean client-observed latency stands
// in, which additionally counts HTTP overhead.
func stageSummary(stageMS map[string][]float64, meanClientMs float64) (map[string]quantiles, float64) {
	if len(stageMS) == 0 {
		return nil, 0
	}
	out := make(map[string]quantiles, len(stageMS))
	var stageMeanSum float64
	for stage, xs := range stageMS {
		q := summarize(xs)
		out[stage] = q
		if stage != serve.StageTotal {
			stageMeanSum += q.mean
		}
	}
	basis := meanClientMs
	if t, ok := out[serve.StageTotal]; ok && t.mean > 0 {
		basis = t.mean
	}
	var coverage float64
	if basis > 0 {
		coverage = stageMeanSum / basis
	}
	return out, coverage
}

// percentile returns the p-quantile of sorted xs by nearest-rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
