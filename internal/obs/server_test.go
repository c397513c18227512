package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ns_srv_hits_total", "hits").Add(42)
	reg.Histogram("ns_srv_seconds", "latency", TimeBuckets).Observe(0.01)
	status := func() any {
		return map[string]any{"epoch": 7, "loss": 0.5}
	}
	epochs := func() any {
		return map[string]any{"records": []int{1, 2, 3}}
	}
	srv, err := NewServer("127.0.0.1:0", reg, Endpoints{Status: status, Epochs: epochs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"ns_srv_hits_total 42",
		`ns_srv_seconds_bucket{le="+Inf"} 1`,
		"ns_srv_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	code, body = get(t, base+"/status")
	if code != 200 || !strings.Contains(body, `"epoch": 7`) {
		t.Fatalf("status: %d %q", code, body)
	}
	code, body = get(t, base+"/epochs")
	if code != 200 || !strings.Contains(body, `"records"`) {
		t.Fatalf("epochs: %d %q", code, body)
	}
	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: %d", code)
	}
	if code, _ := get(t, base+"/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Fatalf("pprof goroutine: %d", code)
	}
}

func TestDebugServerNilStatusAndRegistry(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil, Endpoints{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	if code, body := get(t, base+"/status"); code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("status: %d %q", code, body)
	}
	if code, body := get(t, base+"/epochs"); code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("epochs: %d %q", code, body)
	}
	if code, body := get(t, base+"/healthwatch"); code != 200 || strings.TrimSpace(body) != "{}" {
		t.Fatalf("healthwatch: %d %q", code, body)
	}
	// nil registry falls back to Default().
	if code, _ := get(t, base+"/metrics"); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
}

// TestDebugServerConcurrentScrape races /epochs, /healthwatch and /metrics
// scrapes against a flight recorder that is actively recording epochs
// and a watchdog observing them — the exact shape of a dashboard polling a
// live training run. Run under -race this is the data-race gate for the
// whole causal path: the endpoints read the same structures the epoch loop
// writes.
func TestDebugServerConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	rec := NewFlightRecorder()
	watch := NewWatchdog(WatchRules{Regress: 1000, Straggler: 1000}, rec, nil, nil)
	srv, err := NewServer("127.0.0.1:0", reg, Endpoints{
		Epochs:      func() any { return rec.Snapshot() },
		HealthWatch: func() any { return watch.Health() },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	done := make(chan struct{})
	go func() {
		defer close(done)
		const workers = 3
		for epoch := 1; epoch <= 30; epoch++ {
			rec.BeginEpoch(epoch, workers, 2)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sc := rec.Clock(w, nil)
					sc.Phase(StageBackward, 1, "tape_backward")
					if w != 0 {
						rec.OnWaitMatch(w, 0, "rep", 1, 0,
							time.Now().UnixNano(), time.Now(), time.Now().Add(time.Millisecond))
					}
					sc.End()
				}(w)
			}
			wg.Wait()
			rec.EndEpoch(time.Millisecond, 0.5)
			watch.Check()
		}
	}()

	var wg sync.WaitGroup
	for _, path := range []string{"/epochs", "/healthwatch", "/metrics"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// t.Fatal is off-limits in a non-test goroutine, so the scrape
				// loop reports through t.Errorf and bails.
				resp, err := http.Get(base + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					t.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
			}
		}(path)
	}
	wg.Wait()
	<-done
	if rep := watch.Health(); rep.LastEpoch != 30 {
		t.Fatalf("watchdog saw epoch %d, want 30", rep.LastEpoch)
	}
}
