package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestGatherSnapshotsEverySeries(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("g_total", "t").Add(3)
	reg.Gauge("g_gauge", "t").Set(-2)
	reg.HistogramVec("g_seconds", "t", ExpBuckets(1e-3, 10, 3), "op").With("read").Observe(0.05)
	reg.CounterVec("g_ops_total", "t", "op").With("a").Inc()
	reg.CounterVec("g_ops_total", "t", "op").With("b").Add(4)

	snaps := reg.Gather()
	byKey := map[string]SeriesSnapshot{}
	for _, s := range snaps {
		byKey[s.Key()] = s
	}
	if s := byKey["g_total"]; s.Kind != "counter" || s.Value != 3 {
		t.Fatalf("g_total: %+v", s)
	}
	if s := byKey["g_gauge"]; s.Kind != "gauge" || s.Value != -2 {
		t.Fatalf("g_gauge: %+v", s)
	}
	h := byKey["g_seconds\xffread"]
	if h.Kind != "histogram" || h.Count != 1 || h.Labels()["op"] != "read" {
		t.Fatalf("g_seconds{op=read}: %+v", h)
	}
	if q := h.Quantile(0.5); q <= 0 {
		t.Fatalf("snapshot quantile = %v", q)
	}
	if byKey["g_ops_total\xffa"].Value != 1 || byKey["g_ops_total\xffb"].Value != 4 {
		t.Fatalf("vec children: %+v", byKey)
	}
}

// TestMetricsHandlerContentNegotiation is the /metrics exposition contract:
// the classic scrape gets the versioned 0.0.4 text content type, an
// OpenMetrics scrape gets the 1.0 rendering with bucket exemplars and the
// terminating # EOF.
func TestMetricsHandlerContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("neg_total", "t").Add(2)
	hist := reg.Histogram("neg_seconds", "t", ExpBuckets(1e-3, 10, 3))
	hist.ObserveWithExemplar(0.05, "00000000000000ab", time.Unix(1700000000, 0))

	ts := httptest.NewServer(MetricsHandler(reg))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != textContentType {
		t.Fatalf("default content type %q, want %q", ct, textContentType)
	}
	if !strings.Contains(string(plain), "neg_total 2") {
		t.Fatalf("plain exposition missing counter:\n%s", plain)
	}

	req, err := http.NewRequest("GET", ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0, text/plain;q=0.5")
	r, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != openMetricsContentType {
		t.Fatalf("openmetrics content type %q, want %q", ct, openMetricsContentType)
	}
	body := string(om)
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("openmetrics body does not end with # EOF:\n...%s", body[len(body)-40:])
	}
	// Counter families declare under the base name; the sample keeps _total.
	if !strings.Contains(body, "# TYPE neg counter\n") || !strings.Contains(body, "neg_total 2") {
		t.Fatalf("counter family rendering:\n%s", body)
	}
	if !strings.Contains(body, `# {trace_id="00000000000000ab"} 0.05 1700000000.000`) {
		t.Fatalf("exemplar payload missing:\n%s", body)
	}
}
