package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"neutronstar/internal/dataset"
	"neutronstar/internal/engine"
	"neutronstar/internal/nn"
	"neutronstar/internal/obs"
	"neutronstar/internal/serve"
)

// cloneModel copies m into a fresh model of the same architecture, the way a
// deployment hands the server a new parameter version.
func cloneModel(kind nn.ModelKind, m *nn.Model) *nn.Model {
	c := nn.MustNewModel(kind, m.Dims(), 0, modelSeed)
	src, dst := m.Params(), c.Params()
	for i := range dst {
		dst[i].Value.CopyFrom(src[i].Value)
	}
	return c
}

// serving is a model being served on loopback HTTP, with its clients.
type serving struct {
	ds     *dataset.Dataset
	kind   nn.ModelKind
	model  *nn.Model // never handed to the server; clones are
	static *serve.Static
	srv    *serve.Server
	http   *http.Server
	done   chan error // http.Server.Serve's return
	url    string

	hot     []int32
	clients []*http.Client
	streams []*requestStream
	// issued counts requests over the server's life; version bumps and the
	// sampled output check key off it.
	issued atomic.Int64
	// bumpEvery and sampleEvery space the version bumps and the responses
	// kept for the output check, in requests.
	bumpEvery, sampleEvery int
}

// trainServedModel trains the model serve-mix serves: the workload's own
// (1-worker) configuration for sz.serveEpochs epochs.
func trainServedModel(w workload, ds *dataset.Dataset, cfg *runConfig, parent *openSpan) (*nn.Model, error) {
	eng, err := newEngine(w.engineOptions(), ds, 0, cfg, parent)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	for i := 0; i < cfg.sz.serveEpochs; i++ {
		sp := cfg.tr.start("engine.RunEpoch(served model)", parent)
		eng.RunEpoch()
		sp.end()
	}
	return eng.CloneModel(), nil
}

// startServing builds the server over ds and model, opens a loopback
// listener on Server.Handler() and sends the warm-up requests. cfg.seed
// fixes the hot set and client i's stream (seed + i).
func startServing(ds *dataset.Dataset, kind nn.ModelKind, model *nn.Model, cfg *runConfig, parent *openSpan) (*serving, error) {
	s := &serving{ds: ds, kind: kind, model: model, done: make(chan error, 1),
		bumpEvery: cfg.sz.bumpEvery, sampleEvery: cfg.sz.sampleEvery}
	s.static = serve.NewStatic(cloneModel(kind, model))
	sc := serveConfig()
	sc.Graph, sc.Features, sc.Source = ds.Graph, ds.Features, s.static
	sc.Registry = obs.NewRegistry()
	sp := cfg.tr.start("serve.New", parent)
	srv, err := serve.New(sc)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s.url = "http://" + ln.Addr().String() + "/predict"
	s.http = &http.Server{Handler: srv.Handler()}
	go func() { s.done <- s.http.Serve(ln) }()

	s.hot = hotSet(cfg.seed, ds.Graph)
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
		s.streams = append(s.streams, newRequestStream(cfg.seed+uint64(i), s.hot, ds.NumVertices()))
	}
	sp = cfg.tr.start("warm-up requests", parent)
	warm := s.measureRequests(0, cfg.sz.warmRequests, nil, nil)
	sp.endCount(len(warm.samples))
	if warm.failed > 0 {
		s.close()
		return nil, fmt.Errorf("%d of %d warm-up requests failed: %s", warm.failed, len(warm.samples), warm.firstErr)
	}
	return s, nil
}

// close stops the clients, the HTTP server and the serving pipeline, and
// waits for the listener goroutine.
func (s *serving) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	_ = s.http.Shutdown(context.Background()) // nothing is in flight; Serve's result below is what matters
	<-s.done
	s.srv.Close()
}

// sample is one measured request.
type sample struct {
	ms  float64
	hot bool
	// sinceBump is how many requests were issued between the last version
	// bump and this one (-1 before the first bump).
	sinceBump int64
	failed    bool
	// stages is the parsed Server-Timing header (traced runs only).
	stages map[string]time.Duration
}

// kept is a response held back for the bit-for-bit output check.
type kept struct {
	verts []int32
	body  []byte
}

type requestWindow struct {
	samples  []sample
	kept     []kept
	failed   int
	firstErr string
	wall     time.Duration
	bumps    int
}

// measureRequests drives the closed loop: every client sends its next
// request as soon as the previous reply is read, for the given time (0 = no
// time limit) or until maxRequests have been issued in this window (0 = no
// count limit). Every
// bumpEvery-th request of the server's life is followed by a version bump;
// every sampleEvery-th response is kept for checkServing. With tr set,
// the Server-Timing header is parsed and each request gets a span.
func (s *serving) measureRequests(d time.Duration, maxRequests int, tr *tracer, parent *openSpan) requestWindow {
	var (
		win       requestWindow
		mu        sync.Mutex
		wg        sync.WaitGroup
		inWindow  atomic.Int64
		lastBump  atomic.Int64
		bumpCount atomic.Int64
	)
	lastBump.Store(-1)
	start := time.Now()
	deadline := start.Add(d)
	for i := range s.clients {
		wg.Add(1)
		go func(client *http.Client, stream *requestStream) {
			defer wg.Done()
			var local []sample
			var localKept []kept
			var firstErr string
			for {
				if maxRequests > 0 && inWindow.Add(1) > int64(maxRequests) {
					break
				}
				if d > 0 && time.Now().After(deadline) {
					break
				}
				n := s.issued.Add(1)
				verts, hot := stream.next()
				smp := sample{hot: hot, sinceBump: -1}
				if b := lastBump.Load(); b >= 0 {
					smp.sinceBump = n - b
				}
				sp := tr.start("POST /predict", parent)
				t0 := time.Now()
				body, hdr, err := post(client, s.url, predictBody(verts))
				smp.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
				sp.end()
				switch {
				case err != nil:
					smp.failed = true
					if firstErr == "" {
						firstErr = err.Error()
					}
				case tr != nil:
					smp.stages = serve.ParseServerTiming(hdr.Get("Server-Timing"))
				}
				if err == nil && n%int64(s.sampleEvery) == 0 {
					localKept = append(localKept, kept{verts: verts, body: body})
				}
				local = append(local, smp)
				if n%int64(s.bumpEvery) == 0 {
					sp := tr.start("serve.Static.Update", parent)
					s.static.Update(cloneModel(s.kind, s.model))
					sp.end()
					lastBump.Store(n)
					bumpCount.Add(1)
				}
			}
			mu.Lock()
			win.samples = append(win.samples, local...)
			win.kept = append(win.kept, localKept...)
			if win.firstErr == "" {
				win.firstErr = firstErr
			}
			mu.Unlock()
		}(s.clients[i], s.streams[i])
	}
	wg.Wait()
	win.wall = time.Since(start)
	win.bumps = int(bumpCount.Load())
	for _, smp := range win.samples {
		if smp.failed {
			win.failed++
		}
	}
	return win
}

// post sends one request and reads the whole reply; anything but a 200 is an
// error.
func post(client *http.Client, url string, body []byte) ([]byte, http.Header, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("read reply: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header, nil
}

// checkServing compares every kept response bit-for-bit with the matching
// engine.ReferenceForward rows. It runs after the measured window so it
// takes no CPU from the server. It returns the number of wrong responses.
func (s *serving) checkServing(keptResponses []kept) (wrong int, problems []string) {
	ref := engine.ReferenceForward(s.ds.Graph, cloneModel(s.kind, s.model), s.ds.Features)
	for _, k := range keptResponses {
		var out serve.PredictResponse
		if err := json.Unmarshal(k.body, &out); err != nil {
			wrong++
			problems = append(problems, fmt.Sprintf("undecodable /predict reply: %v", err))
			continue
		}
		if !sameLogits(out.Logits, k.verts, ref.Row) {
			wrong++
			problems = append(problems, fmt.Sprintf("logits for request starting at vertex %d differ from ReferenceForward", k.verts[0]))
		}
	}
	if len(problems) > 3 {
		problems = append(problems[:3], fmt.Sprintf("... and %d more", len(problems)-3))
	}
	return wrong, problems
}

func sameLogits(got [][]float32, verts []int32, want func(int) []float32) bool {
	if len(got) != len(verts) {
		return false
	}
	for i, v := range verts {
		row := want(int(v))
		if len(got[i]) != len(row) {
			return false
		}
		for j := range row {
			if math.Float32bits(got[i][j]) != math.Float32bits(row[j]) {
				return false
			}
		}
	}
	return true
}

// classMS splits the successful samples' latencies by class.
func classMS(samples []sample) (all, hot, cold []float64) {
	for _, s := range samples {
		if s.failed {
			continue
		}
		all = append(all, s.ms)
		if s.hot {
			hot = append(hot, s.ms)
		} else {
			cold = append(cold, s.ms)
		}
	}
	return all, hot, cold
}

// setUpServing is what setup_s times on serve-mix.
func setUpServing(w workload, cfg *runConfig) (*serving, error) {
	ds := loadDataset(w, cfg, nil)
	model, err := trainServedModel(w, ds, cfg, nil)
	if err != nil {
		return nil, err
	}
	return startServing(ds, w.model, model, cfg, nil)
}

// runServing is the untraced end-to-end run of serve-mix.
func runServing(w workload, cfg *runConfig) (*result, error) {
	s, setupSecs, err := repeatSetUp(cfg, func() (*serving, error) { return setUpServing(w, cfg) },
		func(s *serving) { s.close() })
	if err != nil {
		return nil, err
	}
	defer s.close()

	runtime.GC()
	win := s.measureRequests(time.Duration(cfg.seconds*float64(time.Second)), cfg.sz.maxRequests, nil, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	wrong, problems := s.checkServing(win.kept)
	if win.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d requests failed, first: %s", win.failed, win.firstErr))
	}

	all, hot, cold := classMS(win.samples)
	if len(all) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded: %s", w.name, win.firstErr)
	}
	cfg.notef("%s: %d measured requests (%d hot over %d hot vertices, %d cold; highest supported tail p%g), %d version bumps, %d responses checked, hot p50 %.4f ms, cold p50 %.4f ms, setup repeats %v",
		w.name, len(all), len(hot), len(s.hot), len(cold), highestTail(len(all)), win.bumps, len(win.kept), median(hot), median(cold), setupSecs)
	res := &result{Attempted: len(win.samples), Failed: win.failed + wrong, problems: problems, Metrics: map[string]metric{}}
	res.set("setup_s", median(setupSecs), "s")
	res.set("op_ms_p50", median(all), "ms")
	res.set("op_ms_p90", percentile(all, 90), "ms")
	res.set("ops_per_s", float64(len(all))/win.wall.Seconds(), "1/s")
	res.set("peak_rss_mb", rss, "MB")
	return res, nil
}
